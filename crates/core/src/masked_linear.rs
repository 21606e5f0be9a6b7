use rand::rngs::StdRng;
use stepping_nn::{permute_axis, Param, ParamLr};
use stepping_tensor::{init, reduce, Shape, Tensor};

use crate::compiled::{Activation, CompiledLinear, Panels};
use crate::plan::Plan;
use crate::{Assignment, Result, SteppingError};

/// A fully-connected layer whose output neurons carry subnet assignments —
/// the FC building block of a SteppingNet.
///
/// Structural rules enforced here (paper §III-A):
///
/// * **Legality** — weight `w(u→v)` may be nonzero in a forward pass only if
///   `assign(u) ≤ assign(v)`: extra neurons of a larger subnet never feed
///   neurons of a smaller one, so smaller-subnet results stay valid and
///   reusable.
/// * **Synapse removal / revival** — when a neuron moves to a larger subnet,
///   outgoing synapses that become illegal are masked (their stored values
///   are retained); when a later move re-legalises them they resume from the
///   stored value ("the synapses between the neurons are reestablished").
/// * **Non-permanent pruning** — [`MaskedLinear::prune`] zeroes weights whose
///   magnitude is below the threshold; they keep receiving gradient updates
///   and may regrow ("we do not remove these weights permanently").
/// * **Importance accumulation** — the backward pass accumulates
///   `|∂L_k/∂r_j^k| = |Σ_batch ∂L/∂z_j · z_j|` per output neuron per subnet
///   (paper eq. 2), without materialising the virtual gates `r`.
#[derive(Debug, Clone)]
pub struct MaskedLinear {
    weight: Param,
    bias: Param,
    in_assign: Assignment,
    out_assign: Assignment,
    /// Accumulated `|∂L_k/∂r_j^k|`, flattened `[subnet][out]`.
    importance: Vec<f64>,
    cached: Option<CachedForward>,
}

#[derive(Debug, Clone)]
struct CachedForward {
    input: Tensor,
    z: Tensor,
    subnet: usize,
}

impl MaskedLinear {
    /// Creates a masked layer with Kaiming-initialised weights; all output
    /// neurons start in subnet 0 (the construction flow initialises subnet1
    /// with the whole network).
    pub fn new(in_features: usize, out_features: usize, subnets: usize, rng: &mut StdRng) -> Self {
        let weight = Param::new(init::kaiming(
            Shape::of(&[out_features, in_features]),
            in_features,
            rng,
        ));
        let bias = Param::new(Tensor::zeros(Shape::of(&[out_features])));
        MaskedLinear {
            weight,
            bias,
            in_assign: Assignment::new(in_features, subnets),
            out_assign: Assignment::new(out_features, subnets),
            importance: vec![0.0; subnets * out_features],
            cached: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_assign.len()
    }

    /// Output neuron count.
    pub fn out_features(&self) -> usize {
        self.out_assign.len()
    }

    /// Number of subnets.
    pub fn subnet_count(&self) -> usize {
        self.out_assign.subnet_count()
    }

    /// Assignment of the layer's output neurons.
    pub fn out_assign(&self) -> &Assignment {
        &self.out_assign
    }

    /// Assignment of the layer's inputs (mirrors the upstream layer).
    pub fn in_assign(&self) -> &Assignment {
        &self.in_assign
    }

    /// Replaces the input assignment (called by the network when upstream
    /// neurons move).
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::InvalidStructure`] when the length or subnet
    /// count disagrees with the layer geometry.
    pub fn set_in_assign(&mut self, assign: Assignment) -> Result<()> {
        if assign.len() != self.in_features() || assign.subnet_count() != self.subnet_count() {
            return Err(SteppingError::InvalidStructure(format!(
                "in-assignment of {} neurons / {} subnets does not fit layer with {} inputs / {} subnets",
                assign.len(),
                assign.subnet_count(),
                self.in_features(),
                self.subnet_count()
            )));
        }
        self.in_assign = assign;
        Ok(())
    }

    /// Moves output neuron `o` to `target` subnet (or the unused pool).
    ///
    /// # Errors
    ///
    /// Propagates [`Assignment::move_neuron`] errors.
    pub fn move_out_neuron(&mut self, o: usize, target: usize) -> Result<()> {
        self.out_assign.move_neuron(o, target)
    }

    /// Read access to the weight parameter (`[out, in]`).
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

    /// Whether `w[o][i]` is structurally legal (`assign(in) ≤ assign(out)`).
    pub fn is_legal(&self, o: usize, i: usize) -> bool {
        self.in_assign.subnet_of(i) <= self.out_assign.subnet_of(o)
    }

    /// The effective weight matrix for `subnet`: illegal weights and rows of
    /// inactive neurons are zeroed. Legal active rows never read inactive
    /// inputs (legality implies `assign(in) ≤ assign(out) ≤ subnet`), so no
    /// column masking is needed.
    pub fn effective_weight(&self, subnet: usize) -> Tensor {
        let (o_n, i_n) = (self.out_features(), self.in_features());
        let mut w = self.weight.value.clone();
        let wd = w.data_mut();
        for o in 0..o_n {
            let row_active = self.out_assign.is_active(o, subnet);
            let oa = self.out_assign.subnet_of(o);
            for i in 0..i_n {
                if !row_active || self.in_assign.subnet_of(i) > oa {
                    wd[o * i_n + i] = 0.0;
                }
            }
        }
        w
    }

    /// Forward pass for `subnet`: `z = x · W_effᵀ + b_eff` where inactive
    /// neurons produce exactly 0.
    ///
    /// # Errors
    ///
    /// Returns an error for a subnet index out of range or an input of the
    /// wrong width.
    pub fn forward(&mut self, input: &Tensor, subnet: usize, train: bool) -> Result<Tensor> {
        self.check_subnet(subnet)?;
        if input.shape().rank() != 2 || input.shape().dims()[1] != self.in_features() {
            return Err(SteppingError::InvalidStructure(format!(
                "masked linear expects [n, {}], got {}",
                self.in_features(),
                input.shape()
            )));
        }
        let w_eff = self.effective_weight(subnet);
        let mut z = stepping_tensor::matmul::matmul_bt(input, &w_eff)?;
        // Bias only on active neurons so inactive outputs are exactly zero.
        let n = input.shape().dims()[0];
        let o_n = self.out_features();
        {
            let zd = z.data_mut();
            for o in 0..o_n {
                if self.out_assign.is_active(o, subnet) {
                    let b = self.bias.value.data()[o];
                    for b_i in 0..n {
                        zd[b_i * o_n + o] += b;
                    }
                }
            }
        }
        if train {
            self.cached = Some(CachedForward {
                input: input.clone(),
                z: z.clone(),
                subnet,
            });
        } else {
            // Inference never backpropagates: skip the two clones and drop
            // any stale cache so a later `backward` fails loudly instead of
            // silently using old activations.
            self.cached = None;
        }
        Ok(z)
    }

    /// Compiles the layer's full and step panels for every subnet.
    pub(crate) fn compile(&self) -> CompiledLinear {
        CompiledLinear {
            in_features: self.in_features(),
            out_features: self.out_features(),
            panels: Panels::compile(self.subnet_count(), |subnet, step| {
                Plan::layer(
                    "linear",
                    (&self.out_assign, &self.in_assign),
                    (self.weight.value.data(), self.bias.value.data()),
                    (self.in_features(), 1),
                    subnet,
                    step,
                )
            }),
            activation: Activation::Identity,
        }
    }

    /// Reorders the output neurons — weight rows, bias, their gradients and
    /// learning-rate scales, importance and assignment — so that neuron `j`
    /// is the old neuron `perm[j]`, and drops the cached forward.
    pub(crate) fn permute_outputs(&mut self, perm: &[usize]) {
        self.weight.permute(perm, self.in_features());
        self.bias.permute(perm, 1);
        permute_axis(&mut self.importance, perm, 1);
        self.out_assign.permute(perm);
        self.cached = None;
    }

    /// Reorders the input columns the same way, after the upstream neurons
    /// were reordered (the input assignment is re-derived by the net).
    pub(crate) fn permute_inputs(&mut self, perm: &[usize]) {
        self.weight.permute(perm, 1);
        self.cached = None;
    }

    /// Backward pass for the subnet used in the last forward: accumulates
    /// masked weight/bias gradients and the per-neuron importance
    /// `|Σ_batch ∂L/∂z_j · z_j|` (paper eq. 2), and returns `∂L/∂x`.
    ///
    /// # Errors
    ///
    /// Returns an error when called before `forward` or with a gradient of
    /// the wrong shape.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cached = self.cached.as_ref().ok_or_else(|| {
            SteppingError::ExecutorState("masked linear backward before forward".into())
        })?;
        if grad_out.shape() != cached.z.shape() {
            return Err(SteppingError::InvalidStructure(format!(
                "masked linear backward expects {}, got {}",
                cached.z.shape(),
                grad_out.shape()
            )));
        }
        let subnet = cached.subnet;
        let (n, o_n, i_n) = (
            cached.input.shape().dims()[0],
            self.out_features(),
            self.in_features(),
        );
        // Importance (eq. 2): per neuron, |Σ_b g·z| for the trained subnet.
        for o in 0..o_n {
            if !self.out_assign.is_active(o, subnet) {
                continue;
            }
            let mut acc = 0.0f64;
            for b in 0..n {
                acc += (grad_out.data()[b * o_n + o] * cached.z.data()[b * o_n + o]) as f64;
            }
            self.importance[subnet * o_n + o] += acc.abs();
        }
        // Masked gradient: only weights that participated in this forward.
        let dw_full = stepping_tensor::matmul::matmul_at(grad_out, &cached.input)?;
        {
            let gd = self.weight.grad.data_mut();
            for o in 0..o_n {
                let row_active = self.out_assign.is_active(o, subnet);
                let oa = self.out_assign.subnet_of(o);
                for i in 0..i_n {
                    if row_active && self.in_assign.subnet_of(i) <= oa {
                        gd[o * i_n + i] += dw_full.data()[o * i_n + i];
                    }
                }
            }
        }
        let db = reduce::sum_rows(grad_out)?;
        {
            let bd = self.bias.grad.data_mut();
            for (o, b) in bd.iter_mut().enumerate().take(o_n) {
                if self.out_assign.is_active(o, subnet) {
                    *b += db.data()[o];
                }
            }
        }
        let w_eff = self.effective_weight(subnet);
        Ok(stepping_tensor::matmul::matmul(grad_out, &w_eff)?)
    }

    /// Trainable parameters (weight then bias), for the optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Non-permanent magnitude pruning: zeroes weights with
    /// `|w| < threshold`; returns how many were zeroed. Pruned weights keep
    /// receiving gradients and may regrow above the threshold.
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

    /// Boolean mask of currently-zeroed weights (`true` = exactly zero),
    /// flattened in weight order. Snapshot before a training round to count
    /// revivals with [`count_revived`](Self::count_revived).
    pub fn zeroed_weights(&self) -> Vec<bool> {
        self.weight.value.data().iter().map(|w| *w == 0.0).collect()
    }

    /// Counts weights that were zero in `before` (a
    /// [`zeroed_weights`](Self::zeroed_weights) snapshot) and now carry
    /// magnitude `>= threshold` — synapses revived by non-permanent pruning.
    pub fn count_revived(&self, before: &[bool], threshold: f32) -> usize {
        self.weight
            .value
            .data()
            .iter()
            .zip(before.iter())
            .filter(|(w, was_zero)| **was_zero && w.abs() >= threshold)
            .count()
    }

    /// MAC operations of `subnet`: legal, unpruned weights into active
    /// neurons. `threshold` is the pruning threshold used for counting.
    pub fn macs(&self, subnet: usize, threshold: f32) -> u64 {
        let (o_n, i_n) = (self.out_features(), self.in_features());
        let mut count = 0u64;
        for o in 0..o_n {
            if !self.out_assign.is_active(o, subnet) {
                continue;
            }
            let oa = self.out_assign.subnet_of(o);
            for i in 0..i_n {
                if self.in_assign.subnet_of(i) <= oa
                    && self.weight.value.data()[o * i_n + i].abs() >= threshold
                {
                    count += 1;
                }
            }
        }
        count
    }

    /// MAC operations contributed by a single output neuron (its incoming
    /// legal, unpruned synapses) — the mass used when selecting neurons to
    /// move.
    pub fn neuron_macs(&self, o: usize, threshold: f32) -> u64 {
        let i_n = self.in_features();
        let oa = self.out_assign.subnet_of(o);
        let mut count = 0u64;
        for i in 0..i_n {
            if self.in_assign.subnet_of(i) <= oa
                && self.weight.value.data()[o * i_n + i].abs() >= threshold
            {
                count += 1;
            }
        }
        count
    }

    /// Accumulated importance of output neuron `o` w.r.t. `subnet`
    /// (`Σ_batches |∂L_subnet/∂r_o|`).
    pub fn importance(&self, subnet: usize, o: usize) -> f64 {
        self.importance[subnet * self.out_features() + o]
    }

    /// The paper's selection criterion
    /// `M_o^i = Σ_{k=i}^{N} α_k |∂L_k/∂r_o^k|` (eq. 3) for neuron `o`
    /// currently in subnet `i`; `alpha` maps subnet index to `α_k`.
    pub fn selection_score(&self, o: usize, alpha: &[f64]) -> f64 {
        let i = self.out_assign.subnet_of(o);
        let n = self.subnet_count();
        if i >= n {
            return f64::INFINITY; // already unused — never selected
        }
        (i..n).map(|k| alpha[k] * self.importance(k, o)).sum()
    }

    /// Clears accumulated importance (call at the start of each construction
    /// iteration, after the structure changed).
    pub fn reset_importance(&mut self) {
        self.importance.fill(0.0);
    }

    /// The raw accumulated importance buffer, flattened `[subnet][out]` —
    /// exported by replica workers so shard contributions can be merged.
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

    /// Sum of |w| over neuron `o`'s legal incoming synapses — the naive
    /// magnitude criterion the paper's §III-A argues against (used as an
    /// ablation baseline).
    pub fn magnitude_score(&self, o: usize) -> f64 {
        let i_n = self.in_features();
        let oa = self.out_assign.subnet_of(o);
        if oa >= self.subnet_count() {
            return f64::INFINITY; // unused pool — never selected
        }
        (0..i_n)
            .filter(|&i| self.in_assign.subnet_of(i) <= oa)
            .map(|i| self.weight.value.data()[o * i_n + i].abs() as f64)
            .sum()
    }

    /// Installs weight-update suppression for training `subnet`: elements of
    /// rows owned by smaller subnets get learning-rate scale
    /// `β^(subnet − assign)` (paper §III-A2); rows in the unused pool get 0.
    pub fn apply_lr_suppression(&mut self, subnet: usize, beta: f32) {
        let (o_n, i_n) = (self.out_features(), self.in_features());
        let mut wscale = Tensor::ones(Shape::of(&[o_n, i_n]));
        let mut bscale = Tensor::ones(Shape::of(&[o_n]));
        for o in 0..o_n {
            let a = self.out_assign.subnet_of(o);
            let s = if a > subnet {
                0.0 // not part of this subnet: frozen
            } else {
                beta.powi((subnet - a) as i32)
            };
            bscale.data_mut()[o] = s;
            for i in 0..i_n {
                wscale.data_mut()[o * i_n + i] = s;
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

    fn layer() -> MaskedLinear {
        MaskedLinear::new(3, 4, 3, &mut rng(0))
    }

    #[test]
    fn fresh_layer_behaves_like_plain_linear() {
        let mut l = layer();
        let x = init::uniform(Shape::of(&[2, 3]), -1.0, 1.0, &mut rng(1));
        let z = l.forward(&x, 0, true).unwrap();
        // all neurons in subnet 0, all weights legal: matches dense matmul
        let dense = stepping_tensor::matmul::matmul_bt(&x, &l.weight().value).unwrap();
        assert_eq!(z, dense); // bias is zero at init
    }

    #[test]
    fn inactive_neurons_output_exactly_zero() {
        let mut l = layer();
        l.move_out_neuron(2, 1).unwrap();
        l.bias.value.fill(0.5);
        let x = init::uniform(Shape::of(&[2, 3]), -1.0, 1.0, &mut rng(2));
        let z = l.forward(&x, 0, true).unwrap();
        for b in 0..2 {
            assert_eq!(z.data()[b * 4 + 2], 0.0);
            assert_ne!(z.data()[b * 4], 0.0);
        }
    }

    #[test]
    fn legality_masks_weights_from_larger_inputs() {
        let mut l = layer();
        // input 1 belongs to subnet 1; output 0 stays in subnet 0
        let mut ia = Assignment::new(3, 3);
        ia.move_neuron(1, 1).unwrap();
        l.set_in_assign(ia).unwrap();
        let w = l.effective_weight(2);
        // w[0][1] must be zero (illegal), w[0][0] untouched
        assert_eq!(w.data()[1], 0.0);
        assert_eq!(w.data()[0], l.weight().value.data()[0]);
    }

    #[test]
    fn shared_neuron_values_are_identical_across_subnets() {
        // The incremental property: neurons of subnet 0 compute the same
        // values when executed as part of subnet 1.
        let mut l = layer();
        l.move_out_neuron(3, 1).unwrap();
        let x = init::uniform(Shape::of(&[2, 3]), -1.0, 1.0, &mut rng(3));
        let z0 = l.forward(&x, 0, false).unwrap();
        let z1 = l.forward(&x, 1, false).unwrap();
        for b in 0..2 {
            for o in 0..3 {
                assert_eq!(z0.data()[b * 4 + o], z1.data()[b * 4 + o]);
            }
        }
        // and neuron 3 is live only in subnet 1
        assert!(z1.data()[3] != 0.0 || z1.data()[4 + 3] != 0.0);
        assert_eq!(z0.data()[3], 0.0);
    }

    #[test]
    fn backward_masks_gradients_of_illegal_and_inactive_weights() {
        let mut l = layer();
        l.move_out_neuron(0, 2).unwrap(); // neuron 0 only in subnet 2
        let x = init::uniform(Shape::of(&[2, 3]), -1.0, 1.0, &mut rng(5));
        l.forward(&x, 0, true).unwrap(); // train subnet 0
        let g = Tensor::ones(Shape::of(&[2, 4]));
        l.backward(&g).unwrap();
        // row 0 inactive in subnet 0: no gradient
        for i in 0..3 {
            assert_eq!(l.weight().grad.data()[i], 0.0);
        }
        assert_eq!(l.bias().grad.data()[0], 0.0);
        // row 1 active: gradient present
        assert!(l.weight().grad.data()[3..6].iter().any(|&g| g != 0.0));
    }

    #[test]
    fn importance_accumulates_only_for_trained_subnet() {
        let mut l = layer();
        let x = init::uniform(Shape::of(&[2, 3]), -1.0, 1.0, &mut rng(6));
        l.forward(&x, 0, true).unwrap();
        l.backward(&Tensor::ones(Shape::of(&[2, 4]))).unwrap();
        assert!(l.importance(0, 0) > 0.0);
        assert_eq!(l.importance(1, 0), 0.0);
        l.reset_importance();
        assert_eq!(l.importance(0, 0), 0.0);
    }

    #[test]
    fn selection_score_weights_larger_subnets() {
        let mut l = layer();
        let o_n = l.out_features();
        l.importance[o_n] = 2.0; // subnet 1, neuron 0
        l.importance[0] = 1.0; // subnet 0, neuron 0
        let alpha = [1.0, 1.5, 2.25];
        // neuron 0 in subnet 0: score = 1*1 + 1.5*2 + 2.25*0 = 4
        assert!((l.selection_score(0, &alpha) - 4.0).abs() < 1e-12);
        l.move_out_neuron(0, 3).unwrap(); // unused pool
        assert_eq!(l.selection_score(0, &alpha), f64::INFINITY);
    }

    #[test]
    fn prune_zeroes_small_weights_only() {
        let mut l = layer();
        l.weight_mut().value.data_mut()[0] = 1e-7;
        l.weight_mut().value.data_mut()[1] = 0.5;
        let pruned = l.prune(1e-5);
        assert_eq!(pruned, 1);
        assert_eq!(l.weight().value.data()[0], 0.0);
        assert_eq!(l.weight().value.data()[1], 0.5);
        // pruning again does nothing new
        assert_eq!(l.prune(1e-5), 0);
    }

    #[test]
    fn macs_count_legal_unpruned_active() {
        let mut l = layer();
        // all 12 weights initially active in subnet 0
        assert_eq!(l.macs(0, 0.0), 12);
        l.move_out_neuron(0, 1).unwrap();
        assert_eq!(l.macs(0, 0.0), 9);
        assert_eq!(l.macs(1, 0.0), 12);
        l.weight_mut().value.data_mut()[4] = 0.0; // weight of neuron 1
        assert_eq!(l.macs(0, 1e-5), 8);
        assert_eq!(l.neuron_macs(1, 1e-5), 2);
        // move an input to subnet 2: weights to subnet-0/1 outputs illegal
        let mut ia = Assignment::new(3, 3);
        ia.move_neuron(0, 2).unwrap();
        l.set_in_assign(ia).unwrap();
        // every output row loses its column-0 weight: no row is in subnet 2,
        // so `assign(in)=2 > assign(out)` everywhere (threshold 0 counts the
        // zeroed weight again since |0| >= 0)
        assert_eq!(l.macs(2, 0.0), 12 - 4);
    }

    #[test]
    fn lr_suppression_scales_by_beta_power() {
        let mut l = layer();
        l.move_out_neuron(1, 1).unwrap();
        l.move_out_neuron(2, 2).unwrap();
        l.apply_lr_suppression(2, 0.5);
        // row 0 (subnet 0): β² = 0.25 ; row 1 (subnet 1): β = 0.5 ; row 2: 1
        assert!((l.weight().lr_scale_at(0) - 0.25).abs() < 1e-6);
        assert!((l.weight().lr_scale_at(3) - 0.5).abs() < 1e-6);
        assert!((l.weight().lr_scale_at(6) - 1.0).abs() < 1e-6);
        l.clear_lr_suppression();
        assert_eq!(l.weight().lr_scale_at(0), 1.0);
    }

    #[test]
    fn subnet_bounds_checked() {
        let mut l = layer();
        let x = Tensor::zeros(Shape::of(&[1, 3]));
        assert!(matches!(
            l.forward(&x, 3, true),
            Err(SteppingError::SubnetOutOfRange {
                subnet: 3,
                count: 3
            })
        ));
    }
}
