//! The slimmable network baseline \[10\]: switchable-width layers with
//! per-switch batch normalisation and full connectivity inside each switch.
//!
//! Key behavioural differences from SteppingNet (paper §II):
//!
//! * within a switch every active neuron reads **all** active inputs, so a
//!   neuron's value differs between switches (synapse `3→5` in Fig. 1(a)) —
//!   switching width therefore requires recomputation from scratch;
//! * batch-norm statistics differ per switch, so each switch stores its own
//!   [`BatchNorm2d`] instance ("different batch normalization layers need to
//!   be stored for the subnets").
//!
//! [`Slimmable::macs`] charges a full recomputation for every switch, which
//! is exactly how the Fig. 6 comparison uses it.

use rand::rngs::StdRng;
use stepping_core::{Result, SteppingError};
use stepping_data::{BatchIter, Dataset, Split};
use stepping_nn::{
    loss, metrics, optim::Sgd, BatchNorm2d, Flatten, Layer, Linear, MaxPool2d, Param, Relu,
};
use stepping_tensor::conv::{col2im, im2col, mat_to_nchw, nchw_to_mat, ConvGeometry};
use stepping_tensor::{init, matmul, reduce, Shape, Tensor};

use crate::any_width::JointTrainOptions;

fn active(full: usize, fraction: f64) -> usize {
    ((full as f64 * fraction).ceil() as usize).clamp(1, full)
}

/// How a slimmable layer's *input* width depends on the switch fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InWidth {
    /// Raw network input: always fully active.
    Fixed(usize),
    /// Produced by a previous slimmable layer of `full` outputs.
    Frac { full: usize },
    /// Flattened conv features: first `ceil(f·channels)·hw` features active.
    FracChannels { channels: usize, hw: usize },
}

impl InWidth {
    fn full(&self) -> usize {
        match *self {
            InWidth::Fixed(n) => n,
            InWidth::Frac { full } => full,
            InWidth::FracChannels { channels, hw } => channels * hw,
        }
    }

    fn active(&self, fraction: f64) -> usize {
        match *self {
            InWidth::Fixed(n) => n,
            InWidth::Frac { full } => active(full, fraction),
            InWidth::FracChannels { channels, hw } => active(channels, fraction) * hw,
        }
    }
}

#[derive(Debug)]
struct SlimLinear {
    weight: Param,
    bias: Param,
    in_width: InWidth,
    out_full: usize,
    cached: Option<(Tensor, usize, usize)>, // input, out_active, in_active
}

impl SlimLinear {
    fn new(in_width: InWidth, out_full: usize, rng: &mut StdRng) -> Self {
        let in_full = in_width.full();
        SlimLinear {
            weight: Param::new(init::kaiming(Shape::of(&[out_full, in_full]), in_full, rng)),
            bias: Param::new(Tensor::zeros(Shape::of(&[out_full]))),
            in_width,
            out_full,
            cached: None,
        }
    }

    fn forward(&mut self, x: &Tensor, fraction: f64) -> Result<Tensor> {
        let in_full = self.in_width.full();
        if x.shape().rank() != 2 || x.shape().dims()[1] != in_full {
            return Err(SteppingError::InvalidStructure(format!(
                "slim linear expects [n, {in_full}], got {}",
                x.shape()
            )));
        }
        let oa = active(self.out_full, fraction);
        let ia = self.in_width.active(fraction);
        let mut w = self.weight.value.clone();
        {
            let wd = w.data_mut();
            for o in 0..self.out_full {
                for i in 0..in_full {
                    if o >= oa || i >= ia {
                        wd[o * in_full + i] = 0.0;
                    }
                }
            }
        }
        let mut z = matmul::matmul_bt(x, &w)?;
        let n = x.shape().dims()[0];
        {
            let zd = z.data_mut();
            for o in 0..oa {
                let b = self.bias.value.data()[o];
                for bi in 0..n {
                    zd[bi * self.out_full + o] += b;
                }
            }
        }
        self.cached = Some((x.clone(), oa, ia));
        Ok(z)
    }

    fn backward(&mut self, g: &Tensor) -> Result<Tensor> {
        let (x, oa, ia) = self.cached.as_ref().ok_or_else(|| {
            SteppingError::ExecutorState("slim linear backward before forward".into())
        })?;
        let in_full = self.in_width.full();
        let dw = matmul::matmul_at(g, x)?;
        {
            let gd = self.weight.grad.data_mut();
            for o in 0..*oa {
                for i in 0..*ia {
                    gd[o * in_full + i] += dw.data()[o * in_full + i];
                }
            }
        }
        let db = reduce::sum_rows(g)?;
        for o in 0..*oa {
            self.bias.grad.data_mut()[o] += db.data()[o];
        }
        let mut w = self.weight.value.clone();
        {
            let wd = w.data_mut();
            for o in 0..self.out_full {
                for i in 0..in_full {
                    if o >= *oa || i >= *ia {
                        wd[o * in_full + i] = 0.0;
                    }
                }
            }
        }
        Ok(matmul::matmul(g, &w)?)
    }

    fn macs(&self, fraction: f64) -> u64 {
        (active(self.out_full, fraction) * self.in_width.active(fraction)) as u64
    }
}

#[derive(Debug)]
struct SlimConv {
    weight: Param,
    bias: Param,
    kernel: usize,
    stride: usize,
    padding: usize,
    in_width: InWidth,
    out_full: usize,
    positions: usize,
    cached: Option<(Tensor, ConvGeometry, usize, usize, usize)>, // cols, geom, batch, oa, ia
}

impl SlimConv {
    fn new(
        in_width: InWidth,
        out_full: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        positions: usize,
        rng: &mut StdRng,
    ) -> Self {
        let in_full = in_width.full();
        let fan_in = in_full * kernel * kernel;
        SlimConv {
            weight: Param::new(init::kaiming(
                Shape::of(&[out_full, in_full, kernel, kernel]),
                fan_in,
                rng,
            )),
            bias: Param::new(Tensor::zeros(Shape::of(&[out_full]))),
            kernel,
            stride,
            padding,
            in_width,
            out_full,
            positions,
            cached: None,
        }
    }

    fn masked_flat(&self, oa: usize, ia: usize) -> Result<Tensor> {
        let in_full = self.in_width.full();
        let kk = self.kernel * self.kernel;
        let patch = in_full * kk;
        let mut w = self
            .weight
            .value
            .reshape(Shape::of(&[self.out_full, patch]))?;
        {
            let wd = w.data_mut();
            for o in 0..self.out_full {
                for i in 0..in_full {
                    if o >= oa || i >= ia {
                        for e in 0..kk {
                            wd[o * patch + i * kk + e] = 0.0;
                        }
                    }
                }
            }
        }
        Ok(w)
    }

    fn forward(&mut self, x: &Tensor, fraction: f64) -> Result<Tensor> {
        let in_full = self.in_width.full();
        let dims = x.shape().dims();
        if dims.len() != 4 || dims[1] != in_full {
            return Err(SteppingError::InvalidStructure(format!(
                "slim conv expects [n, {in_full}, h, w], got {}",
                x.shape()
            )));
        }
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let geom = ConvGeometry::new(
            in_full,
            h,
            w,
            self.kernel,
            self.kernel,
            self.stride,
            self.padding,
        )?;
        let cols = im2col(x, &geom)?;
        let oa = active(self.out_full, fraction);
        let ia = match self.in_width {
            InWidth::Fixed(c) => c,
            InWidth::Frac { full } => active(full, fraction),
            InWidth::FracChannels { channels, .. } => active(channels, fraction),
        };
        let wf = self.masked_flat(oa, ia)?;
        let mut z = matmul::matmul_bt(&cols, &wf)?;
        {
            let rows = n * geom.positions();
            let zd = z.data_mut();
            for o in 0..oa {
                let b = self.bias.value.data()[o];
                for r in 0..rows {
                    zd[r * self.out_full + o] += b;
                }
            }
        }
        let out = mat_to_nchw(&z, n, self.out_full, geom.out_h, geom.out_w);
        self.cached = Some((cols, geom, n, oa, ia));
        Ok(out)
    }

    fn backward(&mut self, g: &Tensor) -> Result<Tensor> {
        let (cols, geom, n, oa, ia) = self.cached.as_ref().ok_or_else(|| {
            SteppingError::ExecutorState("slim conv backward before forward".into())
        })?;
        let gm = nchw_to_mat(g, *n, self.out_full, geom.out_h, geom.out_w);
        let dwf = matmul::matmul_at(&gm, cols)?;
        let in_full = self.in_width.full();
        let kk = self.kernel * self.kernel;
        let patch = in_full * kk;
        {
            let gd = self.weight.grad.data_mut();
            for o in 0..*oa {
                for i in 0..*ia {
                    for e in 0..kk {
                        let idx = o * patch + i * kk + e;
                        gd[idx] += dwf.data()[idx];
                    }
                }
            }
        }
        let db = reduce::sum_rows(&gm)?;
        for o in 0..*oa {
            self.bias.grad.data_mut()[o] += db.data()[o];
        }
        let wf = self.masked_flat(*oa, *ia)?;
        let dcols = matmul::matmul(&gm, &wf)?;
        Ok(col2im(&dcols, *n, geom)?)
    }

    fn macs(&self, fraction: f64) -> u64 {
        let ia = match self.in_width {
            InWidth::Fixed(c) => c,
            InWidth::Frac { full } => active(full, fraction),
            InWidth::FracChannels { channels, .. } => active(channels, fraction),
        };
        (active(self.out_full, fraction) * ia * self.kernel * self.kernel) as u64
            * self.positions as u64
    }
}

#[derive(Debug)]
enum SlimStage {
    Linear(SlimLinear),
    Conv(SlimConv),
    /// One batch-norm instance per switch (switchable BN).
    BatchNorm(Vec<BatchNorm2d>),
    Relu(Relu),
    MaxPool(MaxPool2d),
    Flatten(Flatten),
}

/// A slimmable network instance with `switches.len()` execution modes.
///
/// Built via [`SlimmableBuilder`].
#[derive(Debug)]
pub struct Slimmable {
    stages: Vec<SlimStage>,
    heads: Vec<Linear>,
    switches: Vec<f64>,
    classes: usize,
    input_shape: Shape,
    feature_width: InWidth,
    last_switch: Option<usize>,
}

impl Slimmable {
    /// Number of switches (execution modes).
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Current width fractions, ascending.
    pub fn switches(&self) -> &[f64] {
        &self.switches
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Shape of one input sample (no batch dimension).
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// Replaces the width fractions (e.g. after fitting to MAC targets).
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::BadConfig`] unless `switches` is ascending in
    /// `(0, 1]` with the same length as before.
    pub fn set_switches(&mut self, switches: Vec<f64>) -> Result<()> {
        if switches.len() != self.switches.len() {
            return Err(SteppingError::BadConfig(format!(
                "{} switches, expected {}",
                switches.len(),
                self.switches.len()
            )));
        }
        if !switches.windows(2).all(|w| w[0] < w[1])
            || switches.iter().any(|f| *f <= 0.0 || *f > 1.0)
        {
            return Err(SteppingError::BadConfig(
                "switches must be ascending within (0, 1]".into(),
            ));
        }
        self.switches = switches;
        Ok(())
    }

    /// Fits switch fractions so each switch's MACs approach but do not
    /// exceed `targets`; returns the fitted fractions.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::BadConfig`] when a target is unreachable.
    pub fn fit_switches_to_macs(&mut self, targets: &[u64]) -> Result<Vec<f64>> {
        if targets.len() != self.switches.len() {
            return Err(SteppingError::BadConfig(format!(
                "{} targets for {} switches",
                targets.len(),
                self.switches.len()
            )));
        }
        let mut fitted = Vec::with_capacity(targets.len());
        for (k, &t) in targets.iter().enumerate() {
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            let mut best = None;
            for _ in 0..24 {
                let mid = 0.5 * (lo + hi);
                if self.macs_at_fraction(mid) <= t {
                    best = Some(mid);
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let mut f = best.ok_or_else(|| {
                SteppingError::BadConfig(format!("cannot meet MAC target {t} for switch {k}"))
            })?;
            if let Some(&prev) = fitted.last() {
                if f <= prev {
                    f = (prev + 1e-9).min(1.0);
                }
            }
            fitted.push(f);
        }
        self.set_switches(fitted.clone())?;
        Ok(fitted)
    }

    /// MAC operations of one full execution at `switch` (slimmable networks
    /// recompute from scratch at every width, so this is also the cost of
    /// *switching to* that width).
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`] for a bad switch index.
    pub fn macs(&self, switch: usize) -> Result<u64> {
        let f = *self
            .switches
            .get(switch)
            .ok_or(SteppingError::SubnetOutOfRange {
                subnet: switch,
                count: self.switches.len(),
            })?;
        Ok(self.macs_at_fraction(f))
    }

    fn macs_at_fraction(&self, fraction: f64) -> u64 {
        let mut total = 0u64;
        for s in &self.stages {
            total += match s {
                SlimStage::Linear(l) => l.macs(fraction),
                SlimStage::Conv(c) => c.macs(fraction),
                _ => 0,
            };
        }
        total + (self.feature_width.active(fraction) * self.classes) as u64
    }

    /// Forward pass at `switch`. Returns class logits.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`] for a bad switch and
    /// propagates layer errors.
    pub fn forward(&mut self, x: &Tensor, switch: usize, train: bool) -> Result<Tensor> {
        let f = *self
            .switches
            .get(switch)
            .ok_or(SteppingError::SubnetOutOfRange {
                subnet: switch,
                count: self.switches.len(),
            })?;
        let mut a = x.clone();
        for s in &mut self.stages {
            a = match s {
                SlimStage::Linear(l) => l.forward(&a, f)?,
                SlimStage::Conv(c) => c.forward(&a, f)?,
                SlimStage::BatchNorm(bns) => {
                    bns[switch].forward(&a, train).map_err(SteppingError::Nn)?
                }
                SlimStage::Relu(r) => r.forward(&a, train).map_err(SteppingError::Nn)?,
                SlimStage::MaxPool(p) => p.forward(&a, train).map_err(SteppingError::Nn)?,
                SlimStage::Flatten(fl) => fl.forward(&a, train).map_err(SteppingError::Nn)?,
            };
        }
        // head over active features only
        let fa = self.feature_width.active(f);
        let full = self.feature_width.full();
        let n = a.shape().dims()[0];
        {
            let ad = a.data_mut();
            for b in 0..n {
                for i in fa..full {
                    ad[b * full + i] = 0.0;
                }
            }
        }
        let logits = self.heads[switch]
            .forward(&a, train)
            .map_err(SteppingError::Nn)?;
        self.last_switch = Some(switch);
        Ok(logits)
    }

    /// Back-propagates through the switch used by the last forward.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::ExecutorState`] before any forward.
    pub fn backward(&mut self, dlogits: &Tensor) -> Result<()> {
        let switch = self
            .last_switch
            .ok_or_else(|| SteppingError::ExecutorState("backward called before forward".into()))?;
        let f = self.switches[switch];
        let mut g = self.heads[switch]
            .backward(dlogits)
            .map_err(SteppingError::Nn)?;
        let fa = self.feature_width.active(f);
        let full = self.feature_width.full();
        let n = g.shape().dims()[0];
        {
            let gd = g.data_mut();
            for b in 0..n {
                for i in fa..full {
                    gd[b * full + i] = 0.0;
                }
            }
        }
        for s in self.stages.iter_mut().rev() {
            g = match s {
                SlimStage::Linear(l) => l.backward(&g)?,
                SlimStage::Conv(c) => c.backward(&g)?,
                SlimStage::BatchNorm(bns) => bns[switch].backward(&g).map_err(SteppingError::Nn)?,
                SlimStage::Relu(r) => r.backward(&g).map_err(SteppingError::Nn)?,
                SlimStage::MaxPool(p) => p.backward(&g).map_err(SteppingError::Nn)?,
                SlimStage::Flatten(fl) => fl.backward(&g).map_err(SteppingError::Nn)?,
            };
        }
        Ok(())
    }

    /// Parameters touched when training `switch`.
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`].
    pub fn params_for(&mut self, switch: usize) -> Result<Vec<&mut Param>> {
        if switch >= self.switches.len() {
            return Err(SteppingError::SubnetOutOfRange {
                subnet: switch,
                count: self.switches.len(),
            });
        }
        let mut out = Vec::new();
        for s in &mut self.stages {
            match s {
                SlimStage::Linear(l) => {
                    out.push(&mut l.weight);
                    out.push(&mut l.bias);
                }
                SlimStage::Conv(c) => {
                    out.push(&mut c.weight);
                    out.push(&mut c.bias);
                }
                SlimStage::BatchNorm(bns) => out.extend(bns[switch].params_mut()),
                _ => {}
            }
        }
        out.extend(self.heads[switch].params_mut());
        Ok(out)
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        for s in &mut self.stages {
            match s {
                SlimStage::Linear(l) => {
                    l.weight.zero_grad();
                    l.bias.zero_grad();
                }
                SlimStage::Conv(c) => {
                    c.weight.zero_grad();
                    c.bias.zero_grad();
                }
                SlimStage::BatchNorm(bns) => {
                    for bn in bns {
                        for p in bn.params_mut() {
                            p.zero_grad();
                        }
                    }
                }
                _ => {}
            }
        }
        for h in &mut self.heads {
            for p in h.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// Joint training: every switch takes one step per batch, smallest
    /// first (the slimmable training recipe). Returns mean loss per epoch
    /// per switch.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn train_joint(
        &mut self,
        data: &dyn Dataset,
        opts: &JointTrainOptions,
    ) -> Result<Vec<Vec<f32>>> {
        if opts.epochs == 0 || opts.batch_size == 0 {
            return Err(SteppingError::BadConfig(
                "epochs and batch size must be nonzero".into(),
            ));
        }
        let n = self.switch_count();
        let mut sgd = Sgd::new(opts.lr).map_err(SteppingError::Nn)?;
        let mut all = Vec::with_capacity(opts.epochs);
        for epoch in 0..opts.epochs {
            let mut sums = vec![0.0f32; n];
            let mut counts = vec![0usize; n];
            for batch in
                BatchIter::new(data, Split::Train, opts.batch_size, epoch as u64, opts.seed)
            {
                let (x, y) = batch?;
                for k in 0..n {
                    self.zero_grad();
                    let logits = self.forward(&x, k, true)?;
                    let (l, dl) = loss::cross_entropy(&logits, &y).map_err(SteppingError::Nn)?;
                    self.backward(&dl)?;
                    sgd.step(&mut self.params_for(k)?)
                        .map_err(SteppingError::Nn)?;
                    sums[k] += l;
                    counts[k] += 1;
                }
            }
            for (s, c) in sums.iter_mut().zip(counts.iter()) {
                *s /= (*c).max(1) as f32;
            }
            all.push(sums);
        }
        Ok(all)
    }

    /// Top-1 accuracy of `switch` on a split.
    ///
    /// # Errors
    ///
    /// Propagates forward errors; rejects empty splits.
    pub fn evaluate(
        &mut self,
        data: &dyn Dataset,
        split: Split,
        switch: usize,
        batch_size: usize,
    ) -> Result<f32> {
        if batch_size == 0 || data.is_empty(split) {
            return Err(SteppingError::BadConfig("bad evaluation config".into()));
        }
        let mut correct = 0.0f64;
        let mut total = 0usize;
        for batch in BatchIter::new(data, split, batch_size, 0, 0) {
            let (x, y) = batch?;
            let logits = self.forward(&x, switch, false)?;
            let acc = metrics::accuracy(&logits, &y).map_err(SteppingError::Nn)?;
            correct += acc as f64 * y.len() as f64;
            total += y.len();
        }
        Ok((correct / total as f64) as f32)
    }
}

/// Where the slimmable builder currently is, shape-wise.
#[derive(Debug, Clone, Copy)]
enum BShape {
    Image(usize, usize, usize, bool), // c, h, w, produced-by-slim-layer
    Flat(InWidth),
}

/// Fluent builder for [`Slimmable`] networks.
///
/// # Example
///
/// ```
/// use stepping_baselines::SlimmableBuilder;
/// use stepping_tensor::Shape;
///
/// let slim = SlimmableBuilder::new(Shape::of(&[3, 8, 8]), vec![0.25, 0.5, 1.0], 0)
///     .conv(8, 3, 1, 1)
///     .batch_norm()
///     .relu()
///     .max_pool(2, 2)
///     .flatten()
///     .linear(16)
///     .relu()
///     .build(10)?;
/// assert_eq!(slim.switch_count(), 3);
/// # Ok::<(), stepping_core::SteppingError>(())
/// ```
#[derive(Debug)]
pub struct SlimmableBuilder {
    switches: Vec<f64>,
    rng: StdRng,
    stages: Vec<SlimStage>,
    shape: BShape,
    input_shape: Shape,
    error: Option<SteppingError>,
}

impl SlimmableBuilder {
    /// Starts a builder for `input_shape` with the given ascending width
    /// `switches`.
    ///
    /// An input shape that is not rank 1 or 3 is reported as
    /// [`SteppingError::BadConfig`] by [`build`](SlimmableBuilder::build)
    /// rather than panicking here.
    ///
    /// # Panics
    ///
    /// Panics for an empty/non-ascending switch list.
    pub fn new(input_shape: Shape, switches: Vec<f64>, seed: u64) -> Self {
        assert!(!switches.is_empty(), "at least one switch required");
        assert!(
            switches.windows(2).all(|w| w[0] < w[1])
                && switches.iter().all(|f| *f > 0.0 && *f <= 1.0),
            "switches must be ascending within (0, 1]"
        );
        let mut error = None;
        let shape = match input_shape.dims() {
            [c, h, w] => BShape::Image(*c, *h, *w, false),
            [f] => BShape::Flat(InWidth::Fixed(*f)),
            _ => {
                error = Some(SteppingError::BadConfig(format!(
                    "input shape must be [c, h, w] or [features], got {input_shape}"
                )));
                BShape::Flat(InWidth::Fixed(0))
            }
        };
        SlimmableBuilder {
            switches,
            rng: init::rng(seed),
            stages: Vec::new(),
            shape,
            input_shape,
            error,
        }
    }

    fn fail(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(SteppingError::BadConfig(msg));
        }
    }

    /// Adds a slimmable convolution.
    pub fn conv(mut self, out: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BShape::Image(c, h, w, slim_in) => {
                match ConvGeometry::new(c, h, w, kernel, kernel, stride, padding) {
                    Ok(geom) => {
                        let in_width = if slim_in {
                            InWidth::Frac { full: c }
                        } else {
                            InWidth::Fixed(c)
                        };
                        self.stages.push(SlimStage::Conv(SlimConv::new(
                            in_width,
                            out,
                            kernel,
                            stride,
                            padding,
                            geom.positions(),
                            &mut self.rng,
                        )));
                        self.shape = BShape::Image(out, geom.out_h, geom.out_w, true);
                    }
                    Err(e) => self.fail(format!("conv geometry: {e}")),
                }
            }
            BShape::Flat(_) => self.fail("conv after flatten".into()),
        }
        self
    }

    /// Adds a slimmable fully-connected layer.
    pub fn linear(mut self, out: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BShape::Flat(in_width) => {
                self.stages.push(SlimStage::Linear(SlimLinear::new(
                    in_width,
                    out,
                    &mut self.rng,
                )));
                self.shape = BShape::Flat(InWidth::Frac { full: out });
            }
            BShape::Image(..) => self.fail("linear before flatten".into()),
        }
        self
    }

    /// Adds switchable batch normalisation (one instance per switch).
    pub fn batch_norm(mut self) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BShape::Image(c, ..) => {
                let bns = (0..self.switches.len())
                    .map(|_| BatchNorm2d::new(c))
                    .collect();
                self.stages.push(SlimStage::BatchNorm(bns));
            }
            BShape::Flat(_) => {
                self.fail("switchable batch norm is only supported on images".into())
            }
        }
        self
    }

    /// Adds ReLU.
    pub fn relu(mut self) -> Self {
        if self.error.is_none() {
            self.stages.push(SlimStage::Relu(Relu::new()));
        }
        self
    }

    /// Adds max pooling.
    pub fn max_pool(mut self, kernel: usize, stride: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BShape::Image(c, h, w, slim_in) => {
                match ConvGeometry::new(c, h, w, kernel, kernel, stride, 0) {
                    Ok(geom) => {
                        self.stages
                            .push(SlimStage::MaxPool(MaxPool2d::new(kernel, stride)));
                        self.shape = BShape::Image(c, geom.out_h, geom.out_w, slim_in);
                    }
                    Err(e) => self.fail(format!("max pool geometry: {e}")),
                }
            }
            BShape::Flat(_) => self.fail("max pool after flatten".into()),
        }
        self
    }

    /// Flattens the image pipeline.
    pub fn flatten(mut self) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.shape {
            BShape::Image(c, h, w, slim_in) => {
                self.stages.push(SlimStage::Flatten(Flatten::new()));
                self.shape = BShape::Flat(if slim_in {
                    InWidth::FracChannels {
                        channels: c,
                        hw: h * w,
                    }
                } else {
                    InWidth::Fixed(c * h * w)
                });
            }
            BShape::Flat(_) => self.fail("flatten on an already-flat pipeline".into()),
        }
        self
    }

    /// Finalises the network with one head per switch.
    ///
    /// # Errors
    ///
    /// Returns the first recorded configuration error, or
    /// [`SteppingError::BadConfig`] when the pipeline does not end flat.
    pub fn build(mut self, classes: usize) -> Result<Slimmable> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if classes == 0 {
            return Err(SteppingError::BadConfig("classes must be nonzero".into()));
        }
        let feature_width = match self.shape {
            BShape::Flat(w) => w,
            BShape::Image(..) => {
                return Err(SteppingError::BadConfig("pipeline must end flat".into()))
            }
        };
        let heads = (0..self.switches.len())
            .map(|_| Linear::new(feature_width.full(), classes, &mut self.rng))
            .collect();
        Ok(Slimmable {
            stages: self.stages,
            heads,
            switches: self.switches,
            classes,
            input_shape: self.input_shape,
            feature_width,
            last_switch: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_data::{
        GaussianBlobs, GaussianBlobsConfig, SyntheticImages, SyntheticImagesConfig,
    };

    fn slim_mlp() -> Slimmable {
        SlimmableBuilder::new(Shape::of(&[10]), vec![0.25, 0.5, 1.0], 3)
            .linear(16)
            .relu()
            .linear(12)
            .relu()
            .build(4)
            .unwrap()
    }

    fn slim_cnn() -> Slimmable {
        SlimmableBuilder::new(Shape::of(&[2, 8, 8]), vec![0.5, 1.0], 4)
            .conv(6, 3, 1, 1)
            .batch_norm()
            .relu()
            .max_pool(2, 2)
            .flatten()
            .linear(10)
            .relu()
            .build(3)
            .unwrap()
    }

    #[test]
    fn forward_shapes_and_macs_monotone() {
        let mut s = slim_mlp();
        let x = init::uniform(Shape::of(&[2, 10]), -1.0, 1.0, &mut init::rng(1));
        for k in 0..3 {
            let y = s.forward(&x, k, false).unwrap();
            assert_eq!(y.shape().dims(), &[2, 4]);
        }
        assert!(s.macs(0).unwrap() < s.macs(1).unwrap());
        assert!(s.macs(1).unwrap() < s.macs(2).unwrap());
        assert!(s.macs(3).is_err());
    }

    #[test]
    fn small_switch_values_change_when_width_grows() {
        // The defining slimmable behaviour: unlike SteppingNet, a shared
        // neuron's value DIFFERS between switches (inputs differ).
        let mut s = slim_mlp();
        let x = init::uniform(Shape::of(&[1, 10]), -1.0, 1.0, &mut init::rng(2));
        // peek at the first layer's output under two switches
        let f_small = s.switches[0];
        let f_large = s.switches[2];
        // drive layer 0 (+ relu) then layer 2 at each width; layer 0 reads
        // the raw input (always fully active), so the effect shows at layer 2
        let run = |s: &mut Slimmable, f: f64| -> f32 {
            let h0 = match &mut s.stages[0] {
                SlimStage::Linear(l) => l.forward(&x, f).unwrap(),
                _ => unreachable!(),
            };
            let h0 = h0.map(|v| v.max(0.0));
            match &mut s.stages[2] {
                SlimStage::Linear(l) => l.forward(&h0, f).unwrap().data()[0],
                _ => unreachable!(),
            }
        };
        let a = run(&mut s, f_small);
        let b = run(&mut s, f_large);
        // neuron 0 of layer 2 is active in both switches but reads more
        // hidden inputs at the larger width — its value changes
        // (recomputation required)
        assert_ne!(a, b);
    }

    #[test]
    fn cnn_forward_backward_and_training() {
        let data = SyntheticImages::new(
            SyntheticImagesConfig {
                classes: 3,
                channels: 2,
                height: 8,
                width: 8,
                train_per_class: 6,
                test_per_class: 2,
                ..Default::default()
            },
            5,
        )
        .unwrap();
        let mut s = slim_cnn();
        let losses = s
            .train_joint(
                &data,
                &JointTrainOptions {
                    epochs: 2,
                    batch_size: 6,
                    lr: 0.05,
                    seed: 0,
                },
            )
            .unwrap();
        assert_eq!(losses.len(), 2);
        let acc = s.evaluate(&data, Split::Test, 1, 4).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn fit_switches_meets_targets() {
        let mut s = slim_mlp();
        let full = s.macs(2).unwrap();
        let targets = vec![full / 6, full / 2, (full as f64 * 0.95) as u64];
        let fitted = s.fit_switches_to_macs(&targets).unwrap();
        assert_eq!(fitted.len(), 3);
        for (k, t) in targets.iter().enumerate() {
            assert!(s.macs(k).unwrap() <= *t);
        }
    }

    #[test]
    fn joint_training_reduces_loss_mlp() {
        let data = GaussianBlobs::new(
            GaussianBlobsConfig {
                classes: 4,
                features: 10,
                train_per_class: 25,
                test_per_class: 5,
                separation: 3.0,
                noise_std: 0.5,
            },
            9,
        )
        .unwrap();
        let mut s = slim_mlp();
        let losses = s
            .train_joint(
                &data,
                &JointTrainOptions {
                    epochs: 5,
                    lr: 0.1,
                    ..Default::default()
                },
            )
            .unwrap();
        let first: f32 = losses[0].iter().sum();
        let last: f32 = losses.last().unwrap().iter().sum();
        assert!(last < first);
    }

    #[test]
    fn set_switches_validates() {
        let mut s = slim_mlp();
        assert!(s.set_switches(vec![0.5, 0.25, 1.0]).is_err());
        assert!(s.set_switches(vec![0.5, 1.0]).is_err());
        assert!(s.set_switches(vec![0.2, 0.6, 1.0]).is_ok());
    }

    #[test]
    fn builder_rejects_bad_pipelines() {
        assert!(SlimmableBuilder::new(Shape::of(&[4]), vec![0.5, 1.0], 0)
            .conv(3, 3, 1, 1)
            .build(2)
            .is_err());
        assert!(
            SlimmableBuilder::new(Shape::of(&[2, 4, 4]), vec![0.5, 1.0], 0)
                .conv(3, 3, 1, 1)
                .build(2)
                .is_err()
        );
        assert!(SlimmableBuilder::new(Shape::of(&[4]), vec![1.0], 0)
            .linear(3)
            .build(0)
            .is_err());
    }

    #[test]
    fn bad_input_rank_is_a_typed_error_not_a_panic() {
        let err = SlimmableBuilder::new(Shape::of(&[2, 3, 4, 5]), vec![0.5, 1.0], 0)
            .linear(4)
            .build(2)
            .unwrap_err();
        assert!(matches!(err, SteppingError::BadConfig(_)), "{err:?}");
    }
}
