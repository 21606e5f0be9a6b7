use rand::rngs::StdRng;
use stepping_nn::{Param, ParamLr};
use stepping_tensor::conv::{col2im, im2col, ConvGeometry};
use stepping_tensor::microkernel::PackedB;
use stepping_tensor::{init, matmul, Shape, Tensor};

use crate::compiled::{CompiledConv, Panels};
use crate::plan::{self, ConvPlan};
use crate::{Assignment, Result, SteppingError};

/// A 2-D convolution whose filters (output channels) carry subnet
/// assignments — the CNN building block of a SteppingNet.
///
/// The structural rules mirror [`MaskedLinear`](crate::MaskedLinear) at
/// *filter* granularity: filter `oc` may read input channel `ic` only when
/// `assign(ic) ≤ assign(oc)`, so channels of smaller subnets are never
/// invalidated by larger-subnet channels. Unstructured pruning additionally
/// zeroes individual kernel weights (paper §III-A1 applies pruning \[14\]
/// inside each iteration).
#[derive(Debug, Clone)]
pub struct MaskedConv2d {
    weight: Param,
    bias: Param,
    kernel: usize,
    stride: usize,
    padding: usize,
    in_assign: Assignment,
    out_assign: Assignment,
    /// Spatial output positions per image (`out_h · out_w`) for MAC
    /// accounting; fixed at build time from the model's input geometry.
    positions: usize,
    /// Accumulated `|∂L_k/∂r_j^k|`, flattened `[subnet][out_channel]`.
    importance: Vec<f64>,
    cached: Option<CachedForward>,
}

#[derive(Debug, Clone)]
struct CachedForward {
    cols: Tensor,
    z: Tensor,
    geom: ConvGeometry,
    batch: usize,
    subnet: usize,
}

impl MaskedConv2d {
    /// Creates a masked convolution; all filters start in subnet 0.
    ///
    /// `positions` is the number of output spatial positions per image at
    /// this layer's place in the model (for MAC accounting).
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per convolution hyper-parameter"
    )]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        positions: usize,
        subnets: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = Param::new(init::kaiming(
            Shape::of(&[out_channels, in_channels, kernel, kernel]),
            fan_in,
            rng,
        ));
        let bias = Param::new(Tensor::zeros(Shape::of(&[out_channels])));
        MaskedConv2d {
            weight,
            bias,
            kernel,
            stride,
            padding,
            in_assign: Assignment::new(in_channels, subnets),
            out_assign: Assignment::new(out_channels, subnets),
            positions,
            importance: vec![0.0; subnets * out_channels],
            cached: None,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_assign.len()
    }

    /// Output filter count.
    pub fn out_channels(&self) -> usize {
        self.out_assign.len()
    }

    /// Square kernel extent.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Number of subnets.
    pub fn subnet_count(&self) -> usize {
        self.out_assign.subnet_count()
    }

    /// Output spatial positions per image used for MAC accounting.
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Assignment of the layer's filters.
    pub fn out_assign(&self) -> &Assignment {
        &self.out_assign
    }

    /// Assignment of the input channels.
    pub fn in_assign(&self) -> &Assignment {
        &self.in_assign
    }

    /// Replaces the input-channel assignment (called by the network when
    /// upstream filters move).
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::InvalidStructure`] on geometry mismatch.
    pub fn set_in_assign(&mut self, assign: Assignment) -> Result<()> {
        if assign.len() != self.in_channels() || assign.subnet_count() != self.subnet_count() {
            return Err(SteppingError::InvalidStructure(format!(
                "in-assignment of {} channels / {} subnets does not fit conv with {} inputs / {} subnets",
                assign.len(),
                assign.subnet_count(),
                self.in_channels(),
                self.subnet_count()
            )));
        }
        self.in_assign = assign;
        Ok(())
    }

    /// Moves filter `oc` to `target` subnet (or the unused pool).
    ///
    /// # Errors
    ///
    /// Propagates [`Assignment::move_neuron`] errors.
    pub fn move_out_neuron(&mut self, oc: usize, target: usize) -> Result<()> {
        self.out_assign.move_neuron(oc, target)
    }

    /// Read access to the weight parameter (`[out, in, k, k]`).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Read access to the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    fn patch_len(&self) -> usize {
        self.in_channels() * self.kernel * self.kernel
    }

    /// Flattened `[out, patch]` weight with illegal channel pairs and
    /// inactive filters zeroed.
    fn effective_weight_flat(&self, subnet: usize) -> Result<Tensor> {
        let (oc_n, ic_n, kk) = (
            self.out_channels(),
            self.in_channels(),
            self.kernel * self.kernel,
        );
        let mut w = self
            .weight
            .value
            .reshape(Shape::of(&[oc_n, self.patch_len()]))?;
        let wd = w.data_mut();
        for oc in 0..oc_n {
            let active = self.out_assign.is_active(oc, subnet);
            let oa = self.out_assign.subnet_of(oc);
            for ic in 0..ic_n {
                if !active || self.in_assign.subnet_of(ic) > oa {
                    for e in 0..kk {
                        wd[oc * self.patch_len() + ic * kk + e] = 0.0;
                    }
                }
            }
        }
        Ok(w)
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> Result<ConvGeometry> {
        Ok(ConvGeometry::new(
            self.in_channels(),
            in_h,
            in_w,
            self.kernel,
            self.kernel,
            self.stride,
            self.padding,
        )?)
    }

    /// Forward pass for `subnet`; inactive filters produce exactly 0.
    ///
    /// # Errors
    ///
    /// Returns structural errors for a bad subnet index or input shape.
    pub fn forward(&mut self, input: &Tensor, subnet: usize, train: bool) -> Result<Tensor> {
        self.check_subnet(subnet)?;
        let dims = input.shape().dims();
        if dims.len() != 4 || dims[1] != self.in_channels() {
            return Err(SteppingError::InvalidStructure(format!(
                "masked conv expects [n, {}, h, w], got {}",
                self.in_channels(),
                input.shape()
            )));
        }
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let geom = self.geometry(h, w)?;
        let cols = im2col(input, &geom)?;
        let w_eff = self.effective_weight_flat(subnet)?;
        let mut z_mat = matmul::matmul_bt(&cols, &w_eff)?;
        let oc_n = self.out_channels();
        {
            // bias only on active filters → inactive channels exactly zero
            let zd = z_mat.data_mut();
            let rows = n * geom.positions();
            for oc in 0..oc_n {
                if self.out_assign.is_active(oc, subnet) {
                    let b = self.bias.value.data()[oc];
                    for r in 0..rows {
                        zd[r * oc_n + oc] += b;
                    }
                }
            }
        }
        let z = crate::layout::mat_to_nchw(&z_mat, n, oc_n, geom.out_h, geom.out_w);
        if train {
            self.cached = Some(CachedForward {
                cols,
                z: z.clone(),
                geom,
                batch: n,
                subnet,
            });
        } else {
            // Inference never backpropagates: skip the clone and drop any
            // stale cache so a later `backward` fails loudly instead of
            // silently using old activations.
            self.cached = None;
        }
        Ok(z)
    }

    /// Compiles the layer's full and step panels for every subnet.
    pub(crate) fn compile(&self) -> CompiledConv {
        CompiledConv {
            in_channels: self.in_channels(),
            out_channels: self.out_channels(),
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            positions: self.positions,
            panels: Panels::compile(self.subnet_count(), |subnet, step| self.panel(subnet, step)),
        }
    }

    /// One packed panel at `subnet`: the filters assigned exactly to it (a
    /// step panel) or every filter active there (a full panel,
    /// level-major), against every input channel active at `subnet`, each
    /// filter cut short after its last legal channel (see
    /// `plan::ConvPlan`).
    fn panel(&self, subnet: usize, step: bool) -> ConvPlan {
        let mut oc_idx = if step {
            self.out_assign.members(subnet)
        } else {
            self.out_assign.active_members(subnet)
        };
        // level-major, ascending within a level (a step panel is one level)
        oc_idx.sort_by_key(|&oc| self.out_assign.subnet_of(oc));
        let ic_idx = self.in_assign.active_members(subnet);
        let kk = self.kernel * self.kernel;
        let patch = self.patch_len();
        let wd = self.weight.value.data();
        let mut weight = vec![0.0f32; oc_idx.len() * ic_idx.len() * kk];
        let mut extents = Vec::with_capacity(oc_idx.len());
        for (r, &oc) in oc_idx.iter().enumerate() {
            let oa = self.out_assign.subnet_of(oc);
            let mut extent = 0;
            for (ci, &ic) in ic_idx.iter().enumerate() {
                // Mirror `effective_weight_flat`: channel blocks from inputs
                // of a larger subnet than this row's owner stay zero (never
                // the case in a step panel, whose rows all own `subnet`).
                if self.in_assign.subnet_of(ic) > oa {
                    continue;
                }
                let src = &wd[oc * patch + ic * kk..oc * patch + (ic + 1) * kk];
                let dst_base = (r * ic_idx.len() + ci) * kk;
                weight[dst_base..dst_base + kk].copy_from_slice(src);
                extent = (ci + 1) * kk;
            }
            extents.push(extent);
        }
        let weight = PackedB::pack_nt_extents(&weight, oc_idx.len(), ic_idx.len() * kk, &extents);
        let bias: Vec<f32> = oc_idx
            .iter()
            .map(|&oc| self.bias.value.data()[oc])
            .collect();
        plan::note_compile("conv", subnet, oc_idx.len(), ic_idx.len());
        ConvPlan {
            oc_idx,
            ic_idx,
            weight,
            bias,
        }
    }

    /// Backward pass for the subnet used in the last forward; accumulates
    /// masked gradients and per-filter importance, returns `∂L/∂x`.
    ///
    /// # Errors
    ///
    /// Returns an error when called before `forward` or with a gradient of
    /// the wrong shape.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cached = self.cached.as_ref().ok_or_else(|| {
            SteppingError::ExecutorState("masked conv backward before forward".into())
        })?;
        if grad_out.shape() != cached.z.shape() {
            return Err(SteppingError::InvalidStructure(format!(
                "masked conv backward expects {}, got {}",
                cached.z.shape(),
                grad_out.shape()
            )));
        }
        let (n, geom, subnet) = (cached.batch, cached.geom, cached.subnet);
        let oc_n = self.out_channels();
        let positions = geom.positions();
        // Importance (eq. 2) at filter granularity: |Σ_{b,positions} g·z|.
        for oc in 0..oc_n {
            if !self.out_assign.is_active(oc, subnet) {
                continue;
            }
            let mut acc = 0.0f64;
            for b in 0..n {
                let base = (b * oc_n + oc) * positions;
                for p in 0..positions {
                    acc += (grad_out.data()[base + p] * cached.z.data()[base + p]) as f64;
                }
            }
            self.importance[subnet * oc_n + oc] += acc.abs();
        }
        let grad_mat = crate::layout::nchw_to_mat(grad_out, n, oc_n, geom.out_h, geom.out_w);
        let dw_flat = matmul::matmul_at(&grad_mat, &cached.cols)?;
        // masked accumulation: only weights that participated
        {
            let kk = self.kernel * self.kernel;
            let patch = self.patch_len();
            let ic_n = self.in_channels();
            let gd = self.weight.grad.data_mut();
            for oc in 0..oc_n {
                let active = self.out_assign.is_active(oc, subnet);
                let oa = self.out_assign.subnet_of(oc);
                for ic in 0..ic_n {
                    if active && self.in_assign.subnet_of(ic) <= oa {
                        for e in 0..kk {
                            let idx = oc * patch + ic * kk + e;
                            gd[idx] += dw_flat.data()[idx];
                        }
                    }
                }
            }
        }
        let db = stepping_tensor::reduce::sum_rows(&grad_mat)?;
        {
            let bd = self.bias.grad.data_mut();
            for (oc, b) in bd.iter_mut().enumerate().take(oc_n) {
                if self.out_assign.is_active(oc, subnet) {
                    *b += db.data()[oc];
                }
            }
        }
        let w_eff = self.effective_weight_flat(subnet)?;
        let dcols = matmul::matmul(&grad_mat, &w_eff)?;
        Ok(col2im(&dcols, n, &geom)?)
    }

    /// Trainable parameters (weight then bias).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Non-permanent magnitude pruning (see
    /// [`MaskedLinear::prune`](crate::MaskedLinear::prune)).
    pub fn prune(&mut self, threshold: f32) -> usize {
        let mut pruned = 0;
        for w in self.weight.value.data_mut() {
            if *w != 0.0 && w.abs() < threshold {
                *w = 0.0;
                pruned += 1;
            }
        }
        pruned
    }

    /// Boolean mask of currently-zeroed kernel weights (`true` = exactly
    /// zero), flattened in weight order (see
    /// [`MaskedLinear::zeroed_weights`](crate::MaskedLinear::zeroed_weights)).
    pub fn zeroed_weights(&self) -> Vec<bool> {
        self.weight.value.data().iter().map(|w| *w == 0.0).collect()
    }

    /// Counts kernel weights zero in `before` that now carry magnitude
    /// `>= threshold` (see
    /// [`MaskedLinear::count_revived`](crate::MaskedLinear::count_revived)).
    pub fn count_revived(&self, before: &[bool], threshold: f32) -> usize {
        self.weight
            .value
            .data()
            .iter()
            .zip(before.iter())
            .filter(|(w, was_zero)| **was_zero && w.abs() >= threshold)
            .count()
    }

    /// MAC operations of `subnet`: legal, unpruned kernel weights into active
    /// filters, times output positions.
    pub fn macs(&self, subnet: usize, threshold: f32) -> u64 {
        let (oc_n, ic_n, kk) = (
            self.out_channels(),
            self.in_channels(),
            self.kernel * self.kernel,
        );
        let patch = self.patch_len();
        let mut count = 0u64;
        for oc in 0..oc_n {
            if !self.out_assign.is_active(oc, subnet) {
                continue;
            }
            let oa = self.out_assign.subnet_of(oc);
            for ic in 0..ic_n {
                if self.in_assign.subnet_of(ic) > oa {
                    continue;
                }
                for e in 0..kk {
                    if self.weight.value.data()[oc * patch + ic * kk + e].abs() >= threshold {
                        count += 1;
                    }
                }
            }
        }
        count * self.positions as u64
    }

    /// MAC operations contributed by filter `oc` (incoming legal unpruned
    /// weights × positions).
    pub fn neuron_macs(&self, oc: usize, threshold: f32) -> u64 {
        let (ic_n, kk) = (self.in_channels(), self.kernel * self.kernel);
        let patch = self.patch_len();
        let oa = self.out_assign.subnet_of(oc);
        let mut count = 0u64;
        for ic in 0..ic_n {
            if self.in_assign.subnet_of(ic) > oa {
                continue;
            }
            for e in 0..kk {
                if self.weight.value.data()[oc * patch + ic * kk + e].abs() >= threshold {
                    count += 1;
                }
            }
        }
        count * self.positions as u64
    }

    /// Accumulated importance of filter `oc` w.r.t. `subnet`.
    pub fn importance(&self, subnet: usize, oc: usize) -> f64 {
        self.importance[subnet * self.out_channels() + oc]
    }

    /// Selection criterion `M_oc^i` (paper eq. 3); see
    /// [`MaskedLinear::selection_score`](crate::MaskedLinear::selection_score).
    pub fn selection_score(&self, oc: usize, alpha: &[f64]) -> f64 {
        let i = self.out_assign.subnet_of(oc);
        let n = self.subnet_count();
        if i >= n {
            return f64::INFINITY;
        }
        (i..n).map(|k| alpha[k] * self.importance(k, oc)).sum()
    }

    /// Clears accumulated importance.
    pub fn reset_importance(&mut self) {
        self.importance.fill(0.0);
    }

    /// The raw accumulated importance buffer, flattened
    /// `[subnet][out_channels]` — exported by replica workers so shard
    /// contributions can be merged.
    pub fn importance_values(&self) -> &[f64] {
        &self.importance
    }

    /// Adds a merged importance delta (same flattened layout) into this
    /// layer's accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::InvalidStructure`] on length mismatch.
    pub fn add_importance_values(&mut self, delta: &[f64]) -> Result<()> {
        if delta.len() != self.importance.len() {
            return Err(SteppingError::InvalidStructure(format!(
                "importance delta of {} entries for layer with {}",
                delta.len(),
                self.importance.len()
            )));
        }
        for (a, d) in self.importance.iter_mut().zip(delta.iter()) {
            *a += d;
        }
        Ok(())
    }

    /// Sum of |w| over filter `oc`'s legal incoming kernel weights — the
    /// naive magnitude criterion (ablation baseline; see
    /// [`MaskedLinear::magnitude_score`](crate::MaskedLinear::magnitude_score)).
    pub fn magnitude_score(&self, oc: usize) -> f64 {
        let (ic_n, kk) = (self.in_channels(), self.kernel * self.kernel);
        let patch = self.patch_len();
        let oa = self.out_assign.subnet_of(oc);
        if oa >= self.subnet_count() {
            return f64::INFINITY;
        }
        let mut acc = 0.0f64;
        for ic in 0..ic_n {
            if self.in_assign.subnet_of(ic) > oa {
                continue;
            }
            for e in 0..kk {
                acc += self.weight.value.data()[oc * patch + ic * kk + e].abs() as f64;
            }
        }
        acc
    }

    /// Installs weight-update suppression for training `subnet`
    /// (`β^(subnet − assign)` per filter; unused filters frozen).
    pub fn apply_lr_suppression(&mut self, subnet: usize, beta: f32) {
        let (oc_n, patch) = (self.out_channels(), self.patch_len());
        let mut wscale = Tensor::ones(Shape::of(&[
            oc_n,
            self.in_channels(),
            self.kernel,
            self.kernel,
        ]));
        let mut bscale = Tensor::ones(Shape::of(&[oc_n]));
        for oc in 0..oc_n {
            let a = self.out_assign.subnet_of(oc);
            let s = if a > subnet {
                0.0
            } else {
                beta.powi((subnet - a) as i32)
            };
            bscale.data_mut()[oc] = s;
            for e in 0..patch {
                wscale.data_mut()[oc * patch + e] = s;
            }
        }
        self.weight.set_lr_scale(wscale);
        self.bias.set_lr_scale(bscale);
    }

    /// Removes any learning-rate suppression.
    pub fn clear_lr_suppression(&mut self) {
        self.weight.lr = ParamLr::Uniform;
        self.bias.lr = ParamLr::Uniform;
    }

    fn check_subnet(&self, subnet: usize) -> Result<()> {
        if subnet >= self.subnet_count() {
            return Err(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.subnet_count(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_tensor::init::rng;

    fn conv() -> MaskedConv2d {
        // 2→3 channels, 3x3 kernel, pad 1 on 4x4 input → 16 positions
        MaskedConv2d::new(2, 3, 3, 1, 1, 16, 3, &mut rng(0))
    }

    fn input() -> Tensor {
        init::uniform(Shape::of(&[2, 2, 4, 4]), -1.0, 1.0, &mut rng(1))
    }

    #[test]
    fn inactive_filters_output_exactly_zero() {
        let mut c = conv();
        c.move_out_neuron(1, 2).unwrap();
        c.bias.value.fill(0.7);
        let z = c.forward(&input(), 0, true).unwrap();
        let positions = 16;
        for b in 0..2 {
            let base = (b * 3 + 1) * positions;
            for p in 0..positions {
                assert_eq!(z.data()[base + p], 0.0);
            }
        }
    }

    #[test]
    fn shared_filter_values_identical_across_subnets() {
        let mut c = conv();
        c.move_out_neuron(2, 1).unwrap();
        let x = input();
        let z0 = c.forward(&x, 0, false).unwrap();
        let z1 = c.forward(&x, 1, false).unwrap();
        let positions = 16;
        for b in 0..2 {
            for oc in 0..2 {
                let base = (b * 3 + oc) * positions;
                for p in 0..positions {
                    assert_eq!(z0.data()[base + p], z1.data()[base + p]);
                }
            }
        }
    }

    #[test]
    fn gradient_masked_for_illegal_channel_pairs() {
        let mut c = conv();
        let mut ia = Assignment::new(2, 3);
        ia.move_neuron(1, 2).unwrap(); // input channel 1 in subnet 2
        c.set_in_assign(ia).unwrap();
        let x = input();
        let z = c.forward(&x, 2, true).unwrap();
        c.backward(&Tensor::ones(z.shape().clone())).unwrap();
        // filters in subnet 0 can't read input channel 1 → zero grads there
        let kk = 9;
        let patch = 2 * kk;
        for oc in 0..3 {
            for e in 0..kk {
                assert_eq!(
                    c.weight().grad.data()[oc * patch + kk + e],
                    0.0,
                    "oc {oc} e {e}"
                );
            }
            assert!(c.weight().grad.data()[oc * patch..oc * patch + kk]
                .iter()
                .any(|&g| g != 0.0));
        }
    }

    #[test]
    fn macs_scale_with_positions_and_masks() {
        let mut c = conv();
        // 3 filters × 2 channels × 9 weights × 16 positions
        assert_eq!(c.macs(0, 0.0), 3 * 2 * 9 * 16);
        c.move_out_neuron(2, 1).unwrap();
        assert_eq!(c.macs(0, 0.0), 2 * 2 * 9 * 16);
        assert_eq!(c.neuron_macs(2, 0.0), 2 * 9 * 16);
        let pruned = {
            c.weight_mut().value.data_mut()[0] = 1e-9;
            c.prune(1e-5)
        };
        assert_eq!(pruned, 1);
        assert_eq!(c.macs(1, 1e-5), (3 * 2 * 9 - 1) * 16);
    }

    #[test]
    fn importance_and_suppression() {
        let mut c = conv();
        c.move_out_neuron(1, 1).unwrap();
        let x = input();
        let z = c.forward(&x, 1, true).unwrap();
        c.backward(&Tensor::ones(z.shape().clone())).unwrap();
        assert!(c.importance(1, 0) > 0.0);
        assert_eq!(c.importance(0, 0), 0.0);
        c.apply_lr_suppression(1, 0.9);
        assert!((c.weight().lr_scale_at(0) - 0.9).abs() < 1e-6); // filter 0 in subnet 0
        let patch = 2 * 9;
        assert!((c.weight().lr_scale_at(patch) - 1.0).abs() < 1e-6); // filter 1 in subnet 1
        c.clear_lr_suppression();
        assert_eq!(c.weight().lr_scale_at(0), 1.0);
    }

    #[test]
    fn structural_validation() {
        let mut c = conv();
        assert!(c
            .forward(&Tensor::zeros(Shape::of(&[1, 3, 4, 4])), 0, true)
            .is_err());
        assert!(c
            .forward(&Tensor::zeros(Shape::of(&[1, 2, 4, 4])), 5, true)
            .is_err());
        assert!(c.set_in_assign(Assignment::new(7, 3)).is_err());
        assert!(c
            .backward(&Tensor::zeros(Shape::of(&[1, 3, 4, 4])))
            .is_err());
    }
}
