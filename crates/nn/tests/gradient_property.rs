//! Property-based gradient checks: every layer's hand-written backward pass
//! must agree with central finite differences of its forward pass, for
//! arbitrary shapes and inputs. This is the correctness backbone of the
//! whole training stack.

use proptest::prelude::*;
use stepping_nn::{loss, AvgPool2d, BatchNorm1d, Layer, Linear, MaxPool2d, Relu, Sigmoid, Tanh};
use stepping_tensor::{init, Shape, Tensor};

/// Checks d<forward(x), dy>/dx against finite differences at a few indices.
fn check_input_grad(
    layer: &mut dyn Layer,
    x: &Tensor,
    dy: &Tensor,
    probes: &[usize],
    tol: f32,
) -> Result<(), TestCaseError> {
    layer
        .forward(x, true)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let dx = layer
        .backward(dy)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let eps = 1e-2f32;
    for &i in probes {
        let i = i % x.len();
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lp = layer
            .forward(&xp, true)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .dot(dy)
            .unwrap();
        let lm = layer
            .forward(&xm, true)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .dot(dy)
            .unwrap();
        let num = (lp - lm) / (2.0 * eps);
        prop_assert!(
            (num - dx.data()[i]).abs() < tol,
            "input grad at {}: numeric {} vs analytic {}",
            i,
            num,
            dx.data()[i]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn linear_input_gradient(seed in 0u64..10_000, n in 1usize..4, fin in 1usize..6, fout in 1usize..6) {
        let mut rng = init::rng(seed);
        let mut l = Linear::new(fin, fout, &mut rng);
        let x = init::uniform(Shape::of(&[n, fin]), -2.0, 2.0, &mut rng);
        let dy = init::uniform(Shape::of(&[n, fout]), -1.0, 1.0, &mut rng);
        check_input_grad(&mut l, &x, &dy, &[0, 3, 7], 2e-2)?;
    }

    #[test]
    fn activation_input_gradients(seed in 0u64..10_000, n in 1usize..4, c in 1usize..8) {
        let mut rng = init::rng(seed);
        // avoid the ReLU kink: keep |x| away from 0
        let x = init::uniform(Shape::of(&[n, c]), 0.1, 2.0, &mut rng)
            .zip(&init::uniform(Shape::of(&[n, c]), -1.0, 1.0, &mut rng),
                 |mag, sign| if sign >= 0.0 { mag } else { -mag }).unwrap();
        let dy = init::uniform(Shape::of(&[n, c]), -1.0, 1.0, &mut rng);
        check_input_grad(&mut Relu::new(), &x, &dy, &[0, 5, 13], 2e-2)?;
        check_input_grad(&mut Tanh::new(), &x, &dy, &[0, 5, 13], 2e-2)?;
        check_input_grad(&mut Sigmoid::new(), &x, &dy, &[0, 5, 13], 2e-2)?;
    }

    #[test]
    fn pooling_input_gradients(seed in 0u64..10_000, c in 1usize..3) {
        let mut rng = init::rng(seed);
        let x = init::uniform(Shape::of(&[1, c, 4, 4]), -2.0, 2.0, &mut rng);
        let dy = init::uniform(Shape::of(&[1, c, 2, 2]), -1.0, 1.0, &mut rng);
        // avg pool is smooth everywhere → finite differences apply
        check_input_grad(&mut AvgPool2d::new(2, 2), &x, &dy, &[0, 7, 15], 2e-2)?;
        // max pool is piecewise linear with kinks at ties, so finite
        // differences are unreliable; check the exact routing property
        // instead: each output's gradient lands on its window's argmax,
        // everything else is zero, and totals are conserved.
        let mut mp = MaxPool2d::new(2, 2);
        let y = mp.forward(&x, true).unwrap();
        let dx = mp.backward(&dy).unwrap();
        let mut expected = vec![0.0f32; x.len()];
        for ch in 0..c {
            for oy in 0..2 {
                for ox in 0..2 {
                    // find the argmax of the window by value
                    let mut best_idx = 0;
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..2 {
                        for kx in 0..2 {
                            let idx = ch * 16 + (oy * 2 + ky) * 4 + (ox * 2 + kx);
                            if x.data()[idx] > best {
                                best = x.data()[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = ch * 4 + oy * 2 + ox;
                    prop_assert!((y.data()[o] - best).abs() < 1e-6);
                    expected[best_idx] += dy.data()[o];
                }
            }
        }
        for (a, e) in dx.data().iter().zip(expected.iter()) {
            prop_assert!((a - e).abs() < 1e-6, "routing mismatch {} vs {}", a, e);
        }
    }

    #[test]
    fn batchnorm_input_gradient(seed in 0u64..10_000, c in 1usize..4) {
        let mut rng = init::rng(seed);
        let mut bn = BatchNorm1d::new(c);
        let x = init::uniform(Shape::of(&[6, c]), -2.0, 2.0, &mut rng);
        let dy = init::uniform(Shape::of(&[6, c]), -1.0, 1.0, &mut rng);
        // fresh-layer finite differences must account for running-stat
        // updates; use a fresh layer per probe direction via closure below.
        bn.forward(&x, true).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let dx = bn.backward(&dy).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let eps = 1e-2f32;
        for &i in &[0usize, 5, 11] {
            let i = i % x.len();
            let run = |xv: &Tensor| -> f32 {
                let mut fresh = BatchNorm1d::new(c);
                fresh.forward(xv, true).unwrap().dot(&dy).unwrap()
            };
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (run(&xp) - run(&xm)) / (2.0 * eps);
            prop_assert!(
                (num - dx.data()[i]).abs() < 5e-2,
                "bn grad at {}: numeric {} vs analytic {}", i, num, dx.data()[i]
            );
        }
    }

    #[test]
    fn loss_gradients(seed in 0u64..10_000, n in 1usize..4, c in 2usize..6) {
        let mut rng = init::rng(seed);
        let logits = init::uniform(Shape::of(&[n, c]), -2.0, 2.0, &mut rng);
        let targets: Vec<usize> = (0..n).map(|i| (seed as usize + i) % c).collect();
        let teacher = stepping_tensor::reduce::softmax_rows(
            &init::uniform(Shape::of(&[n, c]), -2.0, 2.0, &mut rng)).unwrap();
        let eps = 1e-3f32;
        for gamma in [0.0f32, 0.4, 1.0] {
            let (_, grad) = loss::distillation(&logits, &teacher, &targets, gamma).unwrap();
            for &i in &[0usize, n * c / 2, n * c - 1] {
                let mut lp = logits.clone();
                lp.data_mut()[i] += eps;
                let mut lm = logits.clone();
                lm.data_mut()[i] -= eps;
                let num = (loss::distillation(&lp, &teacher, &targets, gamma).unwrap().0
                    - loss::distillation(&lm, &teacher, &targets, gamma).unwrap().0)
                    / (2.0 * eps);
                prop_assert!(
                    (num - grad.data()[i]).abs() < 1e-2,
                    "distill γ={} grad at {}: numeric {} vs analytic {}",
                    gamma, i, num, grad.data()[i]
                );
            }
        }
    }
}
