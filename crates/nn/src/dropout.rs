use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;
use stepping_tensor::{init, Shape, Tensor};

use crate::layer::{shaped, Runs};
use crate::{Layer, NnError, Result};

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`; inference is the identity.
///
/// The layer owns a seeded RNG so whole training runs stay reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            p,
            rng: init::rng(seed),
            cached_mask: None,
        }
    }

    /// The drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Inference forward through `&self`: dropout is the identity at
    /// inference, so the channel `runs` of `input` (`&[0..c]` is the whole
    /// level) are copied into `out` (buffer reused when its shape already
    /// matches). Channels outside the runs keep what `out` held.
    ///
    /// # Errors
    ///
    /// Rejects an input of rank below 2 and a run beyond its channels.
    pub fn infer_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        runs: &[Range<usize>],
    ) -> Result<()> {
        let runs = Runs::new(input.shape().dims(), runs)?;
        let dst = shaped(out, input.shape().dims());
        for span in runs.spans() {
            dst[span.clone()].copy_from_slice(&input.data()[span]);
        }
        Ok(())
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "Dropout"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if !train || self.p == 0.0 {
            // Identity at inference; mark mask as all-keep for backward.
            self.cached_mask = Some(Tensor::ones(input.shape().clone()));
            return Ok(input.clone());
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(input.shape().clone());
        for m in mask.data_mut() {
            if self.rng.random::<f32>() < keep {
                *m = scale;
            }
        }
        let out = input.zip(&mask, |x, m| x * m)?;
        self.cached_mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .cached_mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Dropout" })?;
        Ok(grad_out.zip(mask, |g, m| g * m)?)
    }

    fn output_shape(&self, input: &Shape) -> Option<Shape> {
        Some(input.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::ones(Shape::of(&[4, 4]));
        assert_eq!(d.forward(&x, false).unwrap(), x);
        let mut out = Tensor::zeros(Shape::of(&[1]));
        d.infer_into(&x, &mut out, std::slice::from_ref(&(0..4)))
            .unwrap();
        assert_eq!(out, x);
    }

    #[test]
    fn train_zeroes_roughly_p_fraction_and_scales() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(Shape::of(&[100, 100]));
        let y = d.forward(&x, true).unwrap();
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / y.len() as f32;
        assert!((frac - 0.5).abs() < 0.05, "zero fraction {frac}");
        // survivors are scaled by 2
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(Shape::of(&[10, 10]));
        let y = d.forward(&x, true).unwrap();
        let g = d.backward(&Tensor::ones(Shape::of(&[10, 10]))).unwrap();
        assert_eq!(g, y);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0, 0);
    }
}
