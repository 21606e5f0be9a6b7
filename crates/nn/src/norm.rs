use std::ops::Range;

use stepping_tensor::{reduce, Shape, Tensor};

use crate::layer::{shaped, Runs};
use crate::{Layer, NnError, Param, Result};

/// Shared batch-normalisation math over a `[m, c]` matrix view
/// (m = normalisation-set size, c = features/channels).
#[derive(Debug, Clone)]
struct BatchNormCore {
    features: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    /// When set, running statistics update only for features with `true`
    /// entries (SteppingNet: channels inactive in the trained subnet carry
    /// masked zeros that must not pollute the shared statistics).
    stat_mask: Option<Vec<bool>>,
    cached: Option<CachedNorm>,
}

#[derive(Debug, Clone)]
struct CachedNorm {
    xhat: Tensor,
    inv_std: Tensor,
    train: bool,
}

impl BatchNormCore {
    fn new(features: usize) -> Self {
        BatchNormCore {
            features,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::ones(Shape::of(&[features]))),
            beta: Param::new(Tensor::zeros(Shape::of(&[features]))),
            running_mean: Tensor::zeros(Shape::of(&[features])),
            running_var: Tensor::ones(Shape::of(&[features])),
            stat_mask: None,
            cached: None,
        }
    }

    fn stat_enabled(&self, j: usize) -> bool {
        self.stat_mask.as_ref().is_none_or(|m| m[j])
    }

    fn forward_mat(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let (m, c) = (x.shape().dims()[0], x.shape().dims()[1]);
        self.check_features(c)?;
        if train && m < 2 {
            return Err(NnError::BadInput(
                "batch norm training requires at least 2 samples".into(),
            ));
        }
        let (mean, var) = if train {
            let mean = reduce::mean_rows(x)?;
            let var = reduce::var_rows(x, &mean)?;
            // Exponential moving average of statistics for inference. Only
            // unmasked features update (see `stat_mask`).
            for j in 0..c {
                if self.stat_enabled(j) {
                    let rm = &mut self.running_mean.data_mut()[j];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * mean.data()[j];
                }
            }
            for j in 0..c {
                if self.stat_enabled(j) {
                    let rv = &mut self.running_var.data_mut()[j];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * var.data()[j];
                }
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };
        let inv_std = var.map(|v| 1.0 / (v + self.eps).sqrt());
        let mut xhat = x.clone();
        {
            let xd = xhat.data_mut();
            for i in 0..m {
                for j in 0..c {
                    xd[i * c + j] = (xd[i * c + j] - mean.data()[j]) * inv_std.data()[j];
                }
            }
        }
        let mut out = xhat.clone();
        {
            let od = out.data_mut();
            for i in 0..m {
                for j in 0..c {
                    od[i * c + j] =
                        od[i * c + j] * self.gamma.value.data()[j] + self.beta.value.data()[j];
                }
            }
        }
        self.cached = Some(CachedNorm {
            xhat,
            inv_std,
            train,
        });
        Ok(out)
    }

    /// Inference-mode normalisation of the channel `runs` of `input`
    /// (`[n, features, inner…]`) into `out` with the running statistics:
    /// per element the arithmetic of `forward_mat(.., false)` in the same
    /// order — `x̂ = (x − mean) · inv_std`, then `x̂ · γ + β` — with no
    /// cache and no temporary tensor. Channels outside the runs keep what
    /// `out` held.
    fn infer_into(&self, input: &Tensor, out: &mut Tensor, runs: &[Range<usize>]) -> Result<()> {
        let runs = Runs::new(input.shape().dims(), runs)?;
        self.check_features(runs.c)?;
        let (mean, var) = (self.running_mean.data(), self.running_var.data());
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let (src, inner) = (input.data(), runs.inner);
        let dst = shaped(out, input.shape().dims());
        for plane in runs.planes() {
            let j = plane % self.features;
            let inv_std = 1.0 / (var[j] + self.eps).sqrt();
            let span = plane * inner..(plane + 1) * inner;
            for (d, &x) in dst[span.clone()].iter_mut().zip(&src[span]) {
                *d = (x - mean[j]) * inv_std * gamma[j] + beta[j];
            }
        }
        Ok(())
    }

    fn check_features(&self, c: usize) -> Result<()> {
        if c != self.features {
            return Err(NnError::BadInput(format!(
                "batch norm expects {} features, got {c}",
                self.features
            )));
        }
        Ok(())
    }

    fn backward_mat(&mut self, dy: &Tensor, layer: &'static str) -> Result<Tensor> {
        let cached = self
            .cached
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer })?;
        if dy.shape() != cached.xhat.shape() {
            return Err(NnError::BadInput(format!(
                "batch norm backward expects {}, got {}",
                cached.xhat.shape(),
                dy.shape()
            )));
        }
        let (m, c) = (dy.shape().dims()[0], dy.shape().dims()[1]);
        let dgamma = {
            let prod = dy.zip(&cached.xhat, |a, b| a * b)?;
            reduce::sum_rows(&prod)?
        };
        let dbeta = reduce::sum_rows(dy)?;
        self.gamma.grad.axpy(1.0, &dgamma)?;
        self.beta.grad.axpy(1.0, &dbeta)?;
        let mut dx = Tensor::zeros(dy.shape().clone());
        let dxd = dx.data_mut();
        if cached.train {
            // dx = γ·inv_std/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
            let mf = m as f32;
            for i in 0..m {
                for j in 0..c {
                    let idx = i * c + j;
                    let term = mf * dy.data()[idx]
                        - dbeta.data()[j]
                        - cached.xhat.data()[idx] * dgamma.data()[j];
                    dxd[idx] = self.gamma.value.data()[j] * cached.inv_std.data()[j] / mf * term;
                }
            }
        } else {
            // Inference statistics are constants: dx = dy · γ · inv_std.
            for i in 0..m {
                for j in 0..c {
                    let idx = i * c + j;
                    dxd[idx] =
                        dy.data()[idx] * self.gamma.value.data()[j] * cached.inv_std.data()[j];
                }
            }
        }
        Ok(dx)
    }
}

/// Batch normalisation over `[n, c]` feature matrices.
///
/// The slimmable-network baseline stores one of these per execution mode
/// (switchable batch norm, paper §II), which is why the running statistics
/// are cheaply cloneable via [`BatchNorm1d::clone_stats_from`].
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    core: BatchNormCore,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `features` columns.
    pub fn new(features: usize) -> Self {
        BatchNorm1d {
            core: BatchNormCore::new(features),
        }
    }

    /// Number of normalised features.
    pub fn features(&self) -> usize {
        self.core.features
    }

    /// Running mean and variance used at inference time.
    pub fn running_stats(&self) -> (&Tensor, &Tensor) {
        (&self.core.running_mean, &self.core.running_var)
    }

    /// Replaces the running statistics (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if either tensor's length differs from
    /// the feature count.
    pub fn set_running_stats(&mut self, mean: Tensor, var: Tensor) -> Result<()> {
        if mean.len() != self.core.features || var.len() != self.core.features {
            return Err(NnError::BadInput(format!(
                "running stats of {}/{} values for {} features",
                mean.len(),
                var.len(),
                self.core.features
            )));
        }
        self.core.running_mean = mean;
        self.core.running_var = var;
        Ok(())
    }

    /// Restricts running-statistic updates to features with `true` entries
    /// (pass `None` to update all). Normalisation itself is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if a mask's length differs from the feature count.
    pub fn set_stat_mask(&mut self, mask: Option<Vec<bool>>) {
        if let Some(m) = &mask {
            assert_eq!(m.len(), self.core.features, "stat mask length mismatch");
        }
        self.core.stat_mask = mask;
    }

    /// Inference forward through `&self`: `forward(input, false)` written
    /// into the feature `runs` of `out` (`&[0..c]` is the whole level;
    /// buffer reused when its shape already matches), the same per-element
    /// arithmetic in the same order, keeping no backward cache. Features
    /// outside the runs keep what `out` held.
    ///
    /// # Errors
    ///
    /// As [`Layer::forward`], and for a run beyond the input's features.
    pub fn infer_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        runs: &[Range<usize>],
    ) -> Result<()> {
        if input.shape().rank() != 2 {
            return Err(NnError::BadInput(format!(
                "batch norm 1d expects [n, c], got {}",
                input.shape()
            )));
        }
        self.core.infer_into(input, out, runs)
    }

    /// Copies γ/β and running statistics from another instance.
    ///
    /// # Panics
    ///
    /// Panics if the feature counts differ.
    pub fn clone_stats_from(&mut self, other: &BatchNorm1d) {
        assert_eq!(
            self.core.features, other.core.features,
            "feature count mismatch"
        );
        self.core.gamma.value = other.core.gamma.value.clone();
        self.core.beta.value = other.core.beta.value.clone();
        self.core.running_mean = other.core.running_mean.clone();
        self.core.running_var = other.core.running_var.clone();
    }
}

impl Layer for BatchNorm1d {
    fn name(&self) -> &'static str {
        "BatchNorm1d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if input.shape().rank() != 2 {
            return Err(NnError::BadInput(format!(
                "batch norm 1d expects [n, c], got {}",
                input.shape()
            )));
        }
        self.core.forward_mat(input, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.core.backward_mat(grad_out, "BatchNorm1d")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.core.gamma, &mut self.core.beta]
    }

    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        Some(input.clone())
    }
}

/// Batch normalisation over NCHW activations (statistics per channel over
/// `n·h·w` elements).
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    core: BatchNormCore,
    cached_dims: Option<[usize; 4]>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels`.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            core: BatchNormCore::new(channels),
            cached_dims: None,
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.core.features
    }

    /// Running mean and variance used at inference time.
    pub fn running_stats(&self) -> (&Tensor, &Tensor) {
        (&self.core.running_mean, &self.core.running_var)
    }

    /// Replaces the running statistics (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if either tensor's length differs from
    /// the channel count.
    pub fn set_running_stats(&mut self, mean: Tensor, var: Tensor) -> Result<()> {
        if mean.len() != self.core.features || var.len() != self.core.features {
            return Err(NnError::BadInput(format!(
                "running stats of {}/{} values for {} channels",
                mean.len(),
                var.len(),
                self.core.features
            )));
        }
        self.core.running_mean = mean;
        self.core.running_var = var;
        Ok(())
    }

    /// Restricts running-statistic updates to channels with `true` entries
    /// (pass `None` to update all). Normalisation itself is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if a mask's length differs from the channel count.
    pub fn set_stat_mask(&mut self, mask: Option<Vec<bool>>) {
        if let Some(m) = &mask {
            assert_eq!(m.len(), self.core.features, "stat mask length mismatch");
        }
        self.core.stat_mask = mask;
    }

    /// Inference forward through `&self` (see
    /// [`BatchNorm1d::infer_into`]) over channel `runs`, normalising NCHW in
    /// place of the `[n·h·w, c]` round trip `forward` makes.
    ///
    /// # Errors
    ///
    /// As [`Layer::forward`], and for a run beyond the input's channels.
    pub fn infer_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        runs: &[Range<usize>],
    ) -> Result<()> {
        if input.shape().rank() != 4 {
            return Err(NnError::BadInput(format!(
                "batch norm 2d expects [n, c, h, w], got {}",
                input.shape()
            )));
        }
        self.core.infer_into(input, out, runs)
    }
}

/// Permutes NCHW to a `[n*h*w, c]` matrix.
fn nchw_to_flat(t: &Tensor, d: [usize; 4]) -> Tensor {
    let [n, c, h, w] = d;
    let hw = h * w;
    let mut out = Tensor::zeros(Shape::of(&[n * hw, c]));
    let src = t.data();
    let dst = out.data_mut();
    for b in 0..n {
        for ch in 0..c {
            for p in 0..hw {
                dst[(b * hw + p) * c + ch] = src[(b * c + ch) * hw + p];
            }
        }
    }
    out
}

/// Inverse of [`nchw_to_flat`].
fn flat_to_nchw(t: &Tensor, d: [usize; 4]) -> Tensor {
    let [n, c, h, w] = d;
    let hw = h * w;
    let mut out = Tensor::zeros(Shape::of(&[n, c, h, w]));
    let src = t.data();
    let dst = out.data_mut();
    for b in 0..n {
        for ch in 0..c {
            for p in 0..hw {
                dst[(b * c + ch) * hw + p] = src[(b * hw + p) * c + ch];
            }
        }
    }
    out
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let dims = input.shape().dims();
        if dims.len() != 4 {
            return Err(NnError::BadInput(format!(
                "batch norm 2d expects [n, c, h, w], got {}",
                input.shape()
            )));
        }
        let d = [dims[0], dims[1], dims[2], dims[3]];
        let flat = nchw_to_flat(input, d);
        let out = self.core.forward_mat(&flat, train)?;
        self.cached_dims = Some(d);
        Ok(flat_to_nchw(&out, d))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let d = self.cached_dims.ok_or(NnError::BackwardBeforeForward {
            layer: "BatchNorm2d",
        })?;
        if grad_out.shape().dims() != d {
            return Err(NnError::BadInput(format!(
                "batch norm 2d backward expects [{}, {}, {}, {}], got {}",
                d[0],
                d[1],
                d[2],
                d[3],
                grad_out.shape()
            )));
        }
        let flat = nchw_to_flat(grad_out, d);
        let dx = self.core.backward_mat(&flat, "BatchNorm2d")?;
        Ok(flat_to_nchw(&dx, d))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.core.gamma, &mut self.core.beta]
    }

    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        Some(input.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_tensor::init::{rng, uniform};

    #[test]
    fn training_output_is_normalised() {
        let mut bn = BatchNorm1d::new(3);
        let x = uniform(Shape::of(&[64, 3]), -5.0, 5.0, &mut rng(2));
        let y = bn.forward(&x, true).unwrap();
        let mu = reduce::mean_rows(&y).unwrap();
        let var = reduce::var_rows(&y, &mu).unwrap();
        for j in 0..3 {
            assert!(mu.data()[j].abs() < 1e-4);
            assert!((var.data()[j] - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm1d::new(2);
        let x = uniform(Shape::of(&[32, 2]), 4.0, 6.0, &mut rng(3));
        for _ in 0..200 {
            bn.forward(&x, true).unwrap();
        }
        // In eval mode the same input should still be near-normalised because
        // running stats converged to the batch stats.
        let y = bn.forward(&x, false).unwrap();
        let mu = reduce::mean_rows(&y).unwrap();
        assert!(mu.data().iter().all(|m| m.abs() < 0.1), "means {mu}");
    }

    #[test]
    fn gradient_check_bn1d_input() {
        let mut bn = BatchNorm1d::new(2);
        let x = uniform(Shape::of(&[8, 2]), -1.0, 1.0, &mut rng(4));
        // Use a non-uniform downstream gradient so the test catches the
        // mean-subtraction terms (sum(y) is invariant to the batch mean).
        let dy = uniform(Shape::of(&[8, 2]), 0.0, 1.0, &mut rng(5));
        bn.forward(&x, true).unwrap();
        let dx = bn.backward(&dy).unwrap();
        let loss = |bn: &mut BatchNorm1d, x: &Tensor| -> f32 {
            bn.forward(x, true).unwrap().dot(&dy).unwrap()
        };
        let eps = 1e-2;
        for idx in [0usize, 5, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&mut bn, &xp) - loss(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[idx]).abs() < 0.05,
                "idx {idx}: {num} vs {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn bn2d_round_trips_layout() {
        let d = [2usize, 3, 2, 2];
        let x = uniform(Shape::of(&d), -1.0, 1.0, &mut rng(6));
        let flat = nchw_to_flat(&x, d);
        let back = flat_to_nchw(&flat, d);
        assert_eq!(back, x);
    }

    #[test]
    fn bn2d_normalises_per_channel() {
        let mut bn = BatchNorm2d::new(2);
        let x = uniform(Shape::of(&[4, 2, 3, 3]), 10.0, 20.0, &mut rng(7));
        let y = bn.forward(&x, true).unwrap();
        // channel means over n*h*w should be ~0
        let flat = nchw_to_flat(&y, [4, 2, 3, 3]);
        let mu = reduce::mean_rows(&flat).unwrap();
        assert!(mu.data().iter().all(|m| m.abs() < 1e-4));
    }

    #[test]
    fn infer_into_matches_eval_forward_bitwise() {
        let mut bn1 = BatchNorm1d::new(3);
        let mut bn2 = BatchNorm2d::new(3);
        let x1 = uniform(Shape::of(&[6, 3]), -3.0, 5.0, &mut rng(11));
        let x2 = uniform(Shape::of(&[4, 3, 2, 5]), -3.0, 5.0, &mut rng(12));
        // non-trivial running statistics, scale and shift
        for _ in 0..3 {
            bn1.forward(&x1, true).unwrap();
            bn2.forward(&x2, true).unwrap();
        }
        for p in bn1.params_mut().into_iter().chain(bn2.params_mut()) {
            p.value = uniform(p.value.shape().clone(), 0.5, 1.5, &mut rng(13));
        }
        let channels = 0..3;
        let whole = std::slice::from_ref(&channels);
        let mut out = Tensor::zeros(Shape::of(&[6, 3]));
        let buffer = out.data().as_ptr();
        bn1.infer_into(&x1, &mut out, whole).unwrap();
        assert_eq!(out, bn1.forward(&x1, false).unwrap());
        assert_eq!(
            out.data().as_ptr(),
            buffer,
            "matching shape writes in place"
        );
        bn2.infer_into(&x2, &mut out, whole).unwrap();
        assert_eq!(out, bn2.forward(&x2, false).unwrap());
        assert!(bn1.infer_into(&x2, &mut out, whole).is_err());
        assert!(bn2.infer_into(&x1, &mut out, whole).is_err());
        let wide = Tensor::zeros(Shape::of(&[2, 4]));
        assert!(bn1
            .infer_into(&wide, &mut out, std::slice::from_ref(&(0..4)))
            .is_err());
        assert!(bn1
            .infer_into(&x1, &mut out, std::slice::from_ref(&(0..4)))
            .is_err());
        // one channel alone: the others keep what the target held
        let mut part = Tensor::full(Shape::of(&[4, 3, 2, 5]), 7.0);
        bn2.infer_into(&x2, &mut part, std::slice::from_ref(&(1..2)))
            .unwrap();
        for (i, (&got, &want)) in part.data().iter().zip(out.data()).enumerate() {
            let expect = if i / 10 % 3 == 1 { want } else { 7.0 };
            assert_eq!(got, expect, "element {i}");
        }
    }

    #[test]
    fn train_requires_two_samples() {
        let mut bn = BatchNorm1d::new(2);
        assert!(bn
            .forward(&Tensor::zeros(Shape::of(&[1, 2])), true)
            .is_err());
        assert!(bn
            .forward(&Tensor::zeros(Shape::of(&[1, 2])), false)
            .is_ok());
    }

    #[test]
    fn clone_stats_copies_running_state() {
        let mut a = BatchNorm1d::new(2);
        let x = uniform(Shape::of(&[16, 2]), 3.0, 4.0, &mut rng(8));
        a.forward(&x, true).unwrap();
        let mut b = BatchNorm1d::new(2);
        b.clone_stats_from(&a);
        let ya = a.forward(&x, false).unwrap();
        let yb = b.forward(&x, false).unwrap();
        assert_eq!(ya, yb);
    }
}
