use std::borrow::Cow;
use std::ops::Range;

use rand::rngs::StdRng;
use stepping_nn::{permute_axis, Param};
use stepping_tensor::{init, matmul, reduce, Shape, Tensor};

use crate::compiled::Panels;
use crate::plan::Plan;
use crate::{Assignment, Result, SteppingError};

/// The masked-neuron core of both steppable layers: `out` neurons over `in`
/// inputs, each input a group of `taps` weight columns, with subnet
/// assignments on both sides. A [`MaskedLinear`](crate::MaskedLinear) is
/// this with one tap per input feature; a
/// [`MaskedConv2d`](crate::MaskedConv2d) has `k²` taps per input channel and
/// counts every MAC once per output position. Both layers dereference to
/// it, so every rule of paper §III-A is written once, here, at neuron (or
/// filter) granularity:
///
/// * **Legality** — weight `w(u→v)` may be nonzero in a forward pass only if
///   `assign(u) ≤ assign(v)`: extra neurons of a larger subnet never feed
///   neurons of a smaller one, so smaller-subnet results stay valid and
///   reusable. A filter reads an input channel whole or not at all.
/// * **Synapse removal / revival** — when a neuron moves to a larger subnet,
///   outgoing synapses that become illegal are masked (their stored values
///   are retained); when a later move re-legalises them they resume from the
///   stored value ("the synapses between the neurons are reestablished").
/// * **Non-permanent pruning** — [`prune`](Self::prune) zeroes weights whose
///   magnitude is below the threshold; they keep receiving gradient updates
///   and may regrow ("we do not remove these weights permanently").
/// * **Importance accumulation** — the backward pass accumulates
///   `|∂L_k/∂r_j^k| = |Σ_rows ∂L/∂z_j · z_j|` per output neuron per subnet
///   (paper eq. 2), without materialising the virtual gates `r`; a
///   convolution's rows are its `(image, position)` pairs.
/// * **Update suppression** — [`apply_lr_suppression`](Self::apply_lr_suppression)
///   scales the updates of neurons owned by smaller subnets by
///   `β^(j−i)` (paper §III-A2).
///
/// The forward and backward passes run in *row form*: `[rows, in · taps]`
/// inputs (a linear layer's batch, a convolution's `im2col` patches) against
/// the `[out, in · taps]` effective weight.
#[derive(Debug, Clone)]
pub struct MaskedLayer {
    weight: Param,
    bias: Param,
    in_assign: Assignment,
    out_assign: Assignment,
    /// Weight columns per input: 1 for a linear layer, `k²` for a conv.
    taps: usize,
    /// Output positions per sample each weight is applied at (MAC
    /// accounting): 1 for a linear layer, `out_h · out_w` for a conv, fixed
    /// at build time from the model's input geometry.
    positions: usize,
    /// Accumulated `|∂L_k/∂r_j^k|`, flattened `[subnet][out]`.
    importance: Vec<f64>,
    cached: Option<CachedRows>,
}

#[derive(Debug, Clone)]
struct CachedRows {
    input: Tensor,
    z: Tensor,
    subnet: usize,
}

impl MaskedLayer {
    /// A layer with a Kaiming-initialised weight of shape `dims`
    /// (`[out, in, …]`, `taps` entries per input) and a zero bias; every
    /// neuron starts in subnet 0 (the construction flow initialises subnet 1
    /// with the whole network).
    pub(crate) fn new(
        dims: &[usize],
        taps: usize,
        positions: usize,
        subnets: usize,
        rng: &mut StdRng,
    ) -> Self {
        let (out, inputs) = (dims[0], dims[1]);
        MaskedLayer {
            weight: Param::new(init::kaiming(Shape::of(dims), inputs * taps, rng)),
            bias: Param::new(Tensor::zeros(Shape::of(&[out]))),
            in_assign: Assignment::new(inputs, subnets),
            out_assign: Assignment::new(out, subnets),
            taps,
            positions,
            importance: vec![0.0; subnets * out],
            cached: None,
        }
    }

    /// Number of subnets.
    pub fn subnet_count(&self) -> usize {
        self.out_assign.subnet_count()
    }

    /// Assignment of the output neurons (filters).
    pub fn out_assign(&self) -> &Assignment {
        &self.out_assign
    }

    /// Assignment of the inputs (mirrors the upstream layer).
    pub fn in_assign(&self) -> &Assignment {
        &self.in_assign
    }

    /// Weight columns per input: 1 for a linear layer, `k²` for a conv.
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Output positions per sample used for MAC accounting (1 for a linear
    /// layer).
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Weight columns per output neuron: `in · taps`.
    fn width(&self) -> usize {
        self.in_assign.len() * self.taps
    }

    /// Replaces the input assignment (called by the network when upstream
    /// neurons move).
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::InvalidStructure`] when the length or subnet
    /// count disagrees with the layer geometry.
    pub fn set_in_assign(&mut self, assign: Assignment) -> Result<()> {
        if assign.len() != self.in_assign.len() || assign.subnet_count() != self.subnet_count() {
            return Err(SteppingError::InvalidStructure(format!(
                "in-assignment of {} inputs / {} subnets does not fit layer with {} inputs / {} subnets",
                assign.len(),
                assign.subnet_count(),
                self.in_assign.len(),
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

    /// Read access to the weight parameter (`[out, in]` for a linear layer,
    /// `[out, in, k, k]` for a conv).
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

    /// The flat weight indices of neuron `o`'s legal inputs, in order.
    fn legal_weights(&self, o: usize) -> impl Iterator<Item = usize> + '_ {
        legal_weights((&self.out_assign, &self.in_assign), self.taps, o)
    }

    /// The `[out, in · taps]` weight for `subnet`: illegal groups and rows
    /// of inactive neurons are zeroed. Legal active rows never read
    /// inactive inputs (legality implies `assign(in) ≤ assign(out) ≤
    /// subnet`), so no column masking is needed.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the weight was replaced by one of another
    /// size.
    pub fn effective_weight(&self, subnet: usize) -> Result<Tensor> {
        let mut w = self
            .weight
            .value
            .reshape(Shape::of(&[self.out_assign.len(), self.width()]))?;
        let wd = w.data_mut();
        for o in 0..self.out_assign.len() {
            let active = self.out_assign.is_active(o, subnet);
            for (legal, group) in groups((&self.out_assign, &self.in_assign), self.taps, o) {
                if !active || !legal {
                    wd[group].fill(0.0);
                }
            }
        }
        Ok(w)
    }

    /// Row-form forward pass for `subnet`: `z = rows · W_effᵀ + b_eff`,
    /// where inactive neurons produce exactly 0. In training mode the rows
    /// and `z` are kept for [`backward_rows`](Self::backward_rows).
    pub(crate) fn forward_rows(
        &mut self,
        rows: Cow<'_, Tensor>,
        subnet: usize,
        train: bool,
    ) -> Result<Tensor> {
        let w_eff = self.effective_weight(subnet)?;
        let mut z = matmul::matmul_bt(&rows, &w_eff)?;
        // Bias only on active neurons so inactive outputs are exactly zero.
        let n = rows.shape().dims()[0];
        let o_n = self.out_assign.len();
        {
            let zd = z.data_mut();
            for o in 0..o_n {
                if self.out_assign.is_active(o, subnet) {
                    let b = self.bias.value.data()[o];
                    for r in 0..n {
                        zd[r * o_n + o] += b;
                    }
                }
            }
        }
        // Inference never backpropagates: skip the clones and drop any stale
        // cache so a later backward fails loudly instead of silently using
        // old activations.
        self.cached = train.then(|| CachedRows {
            input: rows.into_owned(),
            z: z.clone(),
            subnet,
        });
        Ok(z)
    }

    /// Row-form backward pass for the subnet of the last training forward:
    /// accumulates the per-neuron importance `|Σ_rows ∂L/∂z_j · z_j|`
    /// (paper eq. 2) and the weight and bias gradients of the weights that
    /// took part, and returns `∂L/∂rows`.
    ///
    /// # Errors
    ///
    /// Returns an error when called before a training forward or with a
    /// gradient of the wrong shape.
    pub(crate) fn backward_rows(&mut self, grad: &Tensor) -> Result<Tensor> {
        let cached = self.cached.as_ref().ok_or_else(|| {
            SteppingError::ExecutorState("masked layer backward before forward".into())
        })?;
        if grad.shape() != cached.z.shape() {
            return Err(SteppingError::InvalidStructure(format!(
                "masked layer backward expects {}, got {}",
                cached.z.shape(),
                grad.shape()
            )));
        }
        let subnet = cached.subnet;
        let (n, o_n) = (cached.input.shape().dims()[0], self.out_assign.len());
        // Importance (eq. 2): per neuron, |Σ_rows g·z| for the trained subnet.
        for o in 0..o_n {
            if !self.out_assign.is_active(o, subnet) {
                continue;
            }
            let mut acc = 0.0f64;
            for r in 0..n {
                acc += (grad.data()[r * o_n + o] * cached.z.data()[r * o_n + o]) as f64;
            }
            self.importance[subnet * o_n + o] += acc.abs();
        }
        // Masked gradient: only weights that participated in this forward.
        let dw = matmul::matmul_at(grad, &cached.input)?;
        let gd = self.weight.grad.data_mut();
        for o in (0..o_n).filter(|&o| self.out_assign.is_active(o, subnet)) {
            for j in legal_weights((&self.out_assign, &self.in_assign), self.taps, o) {
                gd[j] += dw.data()[j];
            }
        }
        let db = reduce::sum_rows(grad)?;
        for (o, b) in self.bias.grad.data_mut().iter_mut().enumerate() {
            if self.out_assign.is_active(o, subnet) {
                *b += db.data()[o];
            }
        }
        let w_eff = self.effective_weight(subnet)?;
        Ok(matmul::matmul(grad, &w_eff)?)
    }

    /// Compiles the full and step panels of every subnet; `kind` names the
    /// layer in the `plan.compile` telemetry.
    pub(crate) fn panels(&self, kind: &'static str) -> Panels {
        Panels::compile(self.subnet_count(), |subnet, step| {
            Plan::layer(
                kind,
                (&self.out_assign, &self.in_assign),
                (self.weight.value.data(), self.bias.value.data()),
                (self.width(), self.taps),
                subnet,
                step,
            )
        })
    }

    /// Reorders the output neurons — weight rows, bias, their gradients and
    /// learning-rate scales, importance and assignment — so that neuron `j`
    /// is the old neuron `perm[j]`, and drops the cached forward.
    pub(crate) fn permute_outputs(&mut self, perm: &[usize]) {
        self.weight.permute(perm, self.width());
        self.bias.permute(perm, 1);
        permute_axis(&mut self.importance, perm, 1);
        self.out_assign.permute(perm);
        self.cached = None;
    }

    /// Reorders the input groups of every neuron the same way, after the
    /// upstream neurons were reordered (the input assignment is re-derived
    /// by the net).
    pub(crate) fn permute_inputs(&mut self, perm: &[usize]) {
        self.weight.permute(perm, self.taps);
        self.cached = None;
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
    /// neurons, times the output positions. `threshold` is the pruning
    /// threshold used for counting.
    pub fn macs(&self, subnet: usize, threshold: f32) -> u64 {
        (0..self.out_assign.len())
            .filter(|&o| self.out_assign.is_active(o, subnet))
            .map(|o| self.neuron_macs(o, threshold))
            .sum()
    }

    /// MAC operations contributed by a single output neuron (its incoming
    /// legal, unpruned weights, times the output positions) — the mass used
    /// when selecting neurons to move.
    pub fn neuron_macs(&self, o: usize, threshold: f32) -> u64 {
        let w = self.weight.value.data();
        let count = self
            .legal_weights(o)
            .filter(|&j| w[j].abs() >= threshold)
            .count();
        count as u64 * self.positions as u64
    }

    /// Accumulated importance of output neuron `o` w.r.t. `subnet`
    /// (`Σ_batches |∂L_subnet/∂r_o|`).
    pub fn importance(&self, subnet: usize, o: usize) -> f64 {
        self.importance[subnet * self.out_assign.len() + o]
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

    /// The raw accumulated importance buffer, flattened `[subnet][out]`.
    pub fn importance_values(&self) -> &[f64] {
        &self.importance
    }

    /// Adds an importance delta (same flattened layout) into this layer's
    /// accumulator.
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

    /// Sum of |w| over neuron `o`'s legal incoming weights — the naive
    /// magnitude criterion the paper's §III-A argues against (used as an
    /// ablation baseline).
    pub fn magnitude_score(&self, o: usize) -> f64 {
        if self.out_assign.subnet_of(o) >= self.subnet_count() {
            return f64::INFINITY; // unused pool — never selected
        }
        let w = self.weight.value.data();
        self.legal_weights(o).map(|j| w[j].abs() as f64).sum()
    }

    /// Installs weight-update suppression for training `subnet`: the
    /// weights and bias of neurons owned by smaller subnets get
    /// learning-rate scale `β^(subnet − assign)` (paper §III-A2); neurons
    /// not in `subnet` (larger subnets, the unused pool) get 0.
    pub fn apply_lr_suppression(&mut self, subnet: usize, beta: f32) {
        let width = self.width();
        let mut wscale = Tensor::ones(self.weight.value.shape().clone());
        let mut bscale = Tensor::ones(self.bias.value.shape().clone());
        for o in 0..self.out_assign.len() {
            let a = self.out_assign.subnet_of(o);
            let s = if a > subnet {
                0.0 // not part of this subnet: frozen
            } else {
                beta.powi((subnet - a) as i32)
            };
            bscale.data_mut()[o] = s;
            wscale.data_mut()[o * width..(o + 1) * width].fill(s);
        }
        self.weight.set_lr_scale(wscale);
        self.bias.set_lr_scale(bscale);
    }

    /// Removes any learning-rate suppression.
    pub fn clear_lr_suppression(&mut self) {
        self.weight.clear_lr_scale();
        self.bias.clear_lr_scale();
    }

    /// Rejects a subnet index the layer does not have.
    pub(crate) fn check_subnet(&self, subnet: usize) -> Result<()> {
        if subnet >= self.subnet_count() {
            return Err(SteppingError::SubnetOutOfRange {
                subnet,
                count: self.subnet_count(),
            });
        }
        Ok(())
    }
}

/// The flat weight index ranges of neuron `o`'s inputs — one group of `taps`
/// per input, in input order — each with whether the input may feed `o`
/// (`assign(in) ≤ assign(o)`).
fn groups<'a>(
    (out, inp): (&'a Assignment, &'a Assignment),
    taps: usize,
    o: usize,
) -> impl Iterator<Item = (bool, Range<usize>)> + 'a {
    let oa = out.subnet_of(o);
    let row = o * inp.len() * taps;
    (0..inp.len()).map(move |i| {
        let start = row + i * taps;
        (inp.subnet_of(i) <= oa, start..start + taps)
    })
}

/// The flat weight indices of neuron `o`'s legal inputs, in order.
fn legal_weights<'a>(
    assign: (&'a Assignment, &'a Assignment),
    taps: usize,
    o: usize,
) -> impl Iterator<Item = usize> + 'a {
    groups(assign, taps, o)
        .filter(|(legal, _)| *legal)
        .flat_map(|(_, g)| g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_tensor::init::rng;

    /// 3 inputs → 4 neurons, 3 subnets, one tap per input.
    fn layer() -> MaskedLayer {
        MaskedLayer::new(&[4, 3], 1, 1, 3, &mut rng(0))
    }

    /// 2 → 3 channels of 3×3 filters at 16 output positions, 3 subnets.
    fn conv() -> MaskedLayer {
        MaskedLayer::new(&[3, 2, 3, 3], 9, 16, 3, &mut rng(0))
    }

    fn rows(n: usize, width: usize, seed: u64) -> Tensor {
        init::uniform(Shape::of(&[n, width]), -1.0, 1.0, &mut rng(seed))
    }

    #[test]
    fn inactive_neurons_output_exactly_zero() {
        let mut l = layer();
        l.move_out_neuron(2, 1).unwrap();
        l.bias.value.fill(0.5);
        let z = l.forward_rows(Cow::Owned(rows(2, 3, 2)), 0, true).unwrap();
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
        let w = l.effective_weight(2).unwrap();
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
        let x = rows(2, 3, 3);
        let z0 = l.forward_rows(Cow::Borrowed(&x), 0, false).unwrap();
        let z1 = l.forward_rows(Cow::Borrowed(&x), 1, false).unwrap();
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
        l.forward_rows(Cow::Owned(rows(2, 3, 5)), 0, true).unwrap(); // train subnet 0
        l.backward_rows(&Tensor::ones(Shape::of(&[2, 4]))).unwrap();
        // row 0 inactive in subnet 0: no gradient
        for i in 0..3 {
            assert_eq!(l.weight().grad.data()[i], 0.0);
        }
        assert_eq!(l.bias().grad.data()[0], 0.0);
        // row 1 active: gradient present
        assert!(l.weight().grad.data()[3..6].iter().any(|&g| g != 0.0));
    }

    #[test]
    fn gradient_masked_for_illegal_channel_pairs() {
        let mut c = conv();
        let mut ia = Assignment::new(2, 3);
        ia.move_neuron(1, 2).unwrap(); // input channel 1 in subnet 2
        c.set_in_assign(ia).unwrap();
        let z = c
            .forward_rows(Cow::Owned(rows(32, 18, 1)), 2, true)
            .unwrap();
        c.backward_rows(&Tensor::ones(z.shape().clone())).unwrap();
        // filters in subnet 0 can't read input channel 1 → zero grads there
        for oc in 0..3 {
            let filter = &c.weight().grad.data()[oc * 18..(oc + 1) * 18];
            assert!(filter[9..].iter().all(|&g| g == 0.0), "filter {oc}");
            assert!(filter[..9].iter().any(|&g| g != 0.0), "filter {oc}");
        }
    }

    #[test]
    fn backward_requires_a_training_forward_of_the_same_shape() {
        let mut l = layer();
        let g = Tensor::ones(Shape::of(&[2, 4]));
        assert!(matches!(
            l.backward_rows(&g),
            Err(SteppingError::ExecutorState(_))
        ));
        l.forward_rows(Cow::Owned(rows(2, 3, 7)), 0, false).unwrap();
        assert!(l.backward_rows(&g).is_err(), "inference keeps no cache");
        l.forward_rows(Cow::Owned(rows(2, 3, 7)), 0, true).unwrap();
        assert!(l.backward_rows(&Tensor::ones(Shape::of(&[3, 4]))).is_err());
        assert!(l.backward_rows(&g).is_ok());
    }

    #[test]
    fn importance_accumulates_only_for_trained_subnet() {
        let mut l = layer();
        l.forward_rows(Cow::Owned(rows(2, 3, 6)), 0, true).unwrap();
        l.backward_rows(&Tensor::ones(Shape::of(&[2, 4]))).unwrap();
        assert!(l.importance(0, 0) > 0.0);
        assert_eq!(l.importance(1, 0), 0.0);
        l.reset_importance();
        assert_eq!(l.importance(0, 0), 0.0);
    }

    #[test]
    fn selection_score_weights_larger_subnets() {
        let mut l = layer();
        l.importance[4] = 2.0; // subnet 1, neuron 0
        l.importance[0] = 1.0; // subnet 0, neuron 0
        let alpha = [1.0, 1.5, 2.25];
        // neuron 0 in subnet 0: score = 1*1 + 1.5*2 + 2.25*0 = 4
        assert!((l.selection_score(0, &alpha) - 4.0).abs() < 1e-12);
        l.move_out_neuron(0, 3).unwrap(); // unused pool
        assert_eq!(l.selection_score(0, &alpha), f64::INFINITY);
        assert_eq!(l.magnitude_score(0), f64::INFINITY);
    }

    #[test]
    fn prune_zeroes_small_weights_only() {
        let mut l = layer();
        l.weight_mut().value.data_mut()[0] = 1e-7;
        l.weight_mut().value.data_mut()[1] = 0.5;
        let before = l.zeroed_weights();
        let pruned = l.prune(1e-5);
        assert_eq!(pruned, 1);
        assert_eq!(l.weight().value.data()[0], 0.0);
        assert_eq!(l.weight().value.data()[1], 0.5);
        // pruning again does nothing new
        assert_eq!(l.prune(1e-5), 0);
        let zeroed = l.zeroed_weights();
        assert!(zeroed[0] && !before[0]);
        l.weight_mut().value.data_mut()[0] = 0.1;
        assert_eq!(l.count_revived(&zeroed, 1e-5), 1);
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
    fn macs_scale_with_positions_and_masks() {
        let mut c = conv();
        // 3 filters × 2 channels × 9 weights × 16 positions
        assert_eq!(c.macs(0, 0.0), 3 * 2 * 9 * 16);
        c.move_out_neuron(2, 1).unwrap();
        assert_eq!(c.macs(0, 0.0), 2 * 2 * 9 * 16);
        assert_eq!(c.neuron_macs(2, 0.0), 2 * 9 * 16);
        c.weight_mut().value.data_mut()[0] = 1e-9;
        assert_eq!(c.prune(1e-5), 1);
        assert_eq!(c.macs(1, 1e-5), (3 * 2 * 9 - 1) * 16);
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
    fn conv_suppression_covers_whole_filters() {
        let mut c = conv();
        c.move_out_neuron(1, 1).unwrap();
        c.move_out_neuron(2, 2).unwrap();
        c.apply_lr_suppression(1, 0.9);
        let scale: Vec<f32> = (0..54).map(|i| c.weight().lr_scale_at(i)).collect();
        // filter 0 (subnet 0): β; filter 1 (subnet 1): 1; filter 2 frozen
        assert!(scale[..18].iter().all(|&s| (s - 0.9).abs() < 1e-6));
        assert!(scale[18..36].iter().all(|&s| s == 1.0));
        assert!(scale[36..].iter().all(|&s| s == 0.0));
    }

    #[test]
    fn geometry_mismatches_are_rejected() {
        let mut l = layer();
        assert!(l.set_in_assign(Assignment::new(7, 3)).is_err());
        assert!(l.set_in_assign(Assignment::new(3, 2)).is_err());
        assert!(l.add_importance_values(&[1.0]).is_err());
        assert!(matches!(
            l.check_subnet(3),
            Err(SteppingError::SubnetOutOfRange {
                subnet: 3,
                count: 3
            })
        ));
    }
}
