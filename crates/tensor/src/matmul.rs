//! Matrix multiplication on rank-2 [`Tensor`]s.
//!
//! One general product, [`gemm`], handles every transpose combination via a
//! [`GemmSpec`]; [`matmul`], [`matmul_bt`] and [`matmul_at`] are thin
//! wrappers kept for their self-explanatory names. These products carry
//! every `Linear` layer, the `im2col` formulation of convolution and the
//! masked training and reference paths (forward, `dW`, `dX`). [`gemm`]
//! packs `B` per spec and makes one call of the blocked, register-tiled
//! [`microkernel`] — the kernel packed inference runs against
//! plan-compiled panels — on the calling thread.
//!
//! [`reference_gemm`] is the definition that kernel is tested against: the
//! one loop-form product in the crate, with no blocking, no zero skip and
//! no threads. The kernel matches it bit for bit (see the [`microkernel`]
//! module docs for the argument).

use crate::microkernel::{self, Epilogue, PackedB};
use crate::{Result, Shape, Tensor, TensorError};

fn check2(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.shape().rank(),
        });
    }
    Ok((t.shape().dims()[0], t.shape().dims()[1]))
}

/// `(m, k, n)` of `op(A) · op(B)`, or the error both products return.
fn extents(a: &Tensor, b: &Tensor, spec: GemmSpec) -> Result<(usize, usize, usize)> {
    let (a0, a1) = check2(a)?;
    let (b0, b1) = check2(b)?;
    let (m, ka) = if spec.trans_a { (a1, a0) } else { (a0, a1) };
    let (kb, n) = if spec.trans_b { (b1, b0) } else { (b0, b1) };
    if ka != kb {
        return Err(TensorError::InnerDimMismatch {
            left: ka,
            right: kb,
        });
    }
    Ok((m, ka, n))
}

/// Transpose flags for [`gemm`]: which operands are read transposed.
///
/// The default (`NN`) multiplies the operands as stored. Construct via
/// struct literal or the named presets.
///
/// # Example
///
/// ```
/// use stepping_tensor::matmul::GemmSpec;
///
/// assert_eq!(GemmSpec::NT, GemmSpec { trans_a: false, trans_b: true });
/// assert_eq!(GemmSpec::default(), GemmSpec::NN);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GemmSpec {
    /// Read `A` transposed (`Aᵀ`).
    pub trans_a: bool,
    /// Read `B` transposed (`Bᵀ`).
    pub trans_b: bool,
}

impl GemmSpec {
    /// `C = A · B` (no transposition).
    pub const NN: GemmSpec = GemmSpec {
        trans_a: false,
        trans_b: false,
    };
    /// `C = A · Bᵀ` — the `Linear` forward layout (`W: [out, in]`).
    pub const NT: GemmSpec = GemmSpec {
        trans_a: false,
        trans_b: true,
    };
    /// `C = Aᵀ · B` — the weight-gradient layout (`dW = xᵀ · dy`).
    pub const TN: GemmSpec = GemmSpec {
        trans_a: true,
        trans_b: false,
    };
    /// `C = Aᵀ · Bᵀ`.
    pub const TT: GemmSpec = GemmSpec {
        trans_a: true,
        trans_b: true,
    };
}

/// General matrix multiply `C = op(A) · op(B)` where `op` optionally
/// transposes each operand per `spec`.
///
/// Expected shapes (with result `[m, n]` and inner dimension `k`):
///
/// | spec | `A` | `B` |
/// |---|---|---|
/// | [`GemmSpec::NN`] | `[m, k]` | `[k, n]` |
/// | [`GemmSpec::NT`] | `[m, k]` | `[n, k]` |
/// | [`GemmSpec::TN`] | `[k, m]` | `[k, n]` |
/// | [`GemmSpec::TT`] | `[k, m]` | `[n, k]` |
///
/// Packs `B` into a [`PackedB`] and runs [`microkernel::gemm_packed`] in
/// the host's widest tier. The result is bit-identical to
/// [`reference_gemm`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::InnerDimMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use stepping_tensor::matmul::{gemm, GemmSpec};
/// use stepping_tensor::{Shape, Tensor};
///
/// let a = Tensor::from_vec(Shape::of(&[1, 2]), vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(Shape::of(&[1, 2]), vec![3.0, 4.0])?;
/// assert_eq!(gemm(&a, &b, GemmSpec::NT)?.data(), &[11.0]);
/// # Ok::<(), stepping_tensor::TensorError>(())
/// ```
pub fn gemm(a: &Tensor, b: &Tensor, spec: GemmSpec) -> Result<Tensor> {
    let (m, k, n) = extents(a, b, spec)?;
    let packed = if spec.trans_b {
        PackedB::pack_nt(b.data(), n, k)
    } else {
        PackedB::pack_nn(b.data(), k, n)
    };
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    microkernel::gemm_packed(
        a.data(),
        spec.trans_a,
        &packed,
        out.data_mut(),
        m,
        &mut Vec::new(),
        Epilogue::None,
    );
    Ok(out)
}

/// The definition of `C = op(A) · op(B)` (shapes as in [`gemm`]): each
/// output element is one chain that starts at `+0.0` and runs over `k` in
/// ascending order, one rounded multiply and one rounded add per term. No
/// blocking, no zero skip, no threads — the test oracle for [`gemm`] and
/// every tier of the [`microkernel`], not a path any layer runs.
///
/// A zero skip would change no finite result, which is why masked
/// operands, mostly exact zeros, need none: the chain starts at `+0.0` and
/// under round-to-nearest only ever holds `+0.0` or a nonzero value
/// (`x + (-x)` is `+0.0`), so adding a `±0.0` product — an exact zero
/// times a finite value — never changes a bit of it.
///
/// # Errors
///
/// Same conditions as [`gemm`].
///
/// # Example
///
/// ```
/// use stepping_tensor::matmul::{gemm, reference_gemm, GemmSpec};
/// use stepping_tensor::{Shape, Tensor};
///
/// let a = Tensor::from_vec(Shape::of(&[2, 1]), vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(Shape::of(&[2, 2]), vec![3.0, 4.0, 5.0, 6.0])?;
/// let c = reference_gemm(&a, &b, GemmSpec::TN)?;
/// assert_eq!(c.data(), &[13.0, 16.0]);
/// assert_eq!(c, gemm(&a, &b, GemmSpec::TN)?);
/// # Ok::<(), stepping_tensor::TensorError>(())
/// ```
pub fn reference_gemm(a: &Tensor, b: &Tensor, spec: GemmSpec) -> Result<Tensor> {
    let (m, k, n) = extents(a, b, spec)?;
    let (ad, bd) = (a.data(), b.data());
    // element strides of op(A)'s rows and depth, and op(B)'s depth and columns
    let (a_row, a_k) = if spec.trans_a { (1, m) } else { (k, 1) };
    let (b_k, b_col) = if spec.trans_b { (1, k) } else { (n, 1) };
    let mut data = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += ad[i * a_row + kk * a_k] * bd[kk * b_k + j * b_col];
            }
            data.push(acc);
        }
    }
    Tensor::from_vec(Shape::of(&[m, n]), data)
}

/// `C = A · B` for `A: [m, k]`, `B: [k, n]`.
///
/// Thin wrapper over [`gemm`] with [`GemmSpec::NN`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrices and
/// [`TensorError::InnerDimMismatch`] if `A`'s columns differ from `B`'s rows.
///
/// # Example
///
/// ```
/// use stepping_tensor::{matmul::matmul, Shape, Tensor};
///
/// let a = Tensor::from_vec(Shape::of(&[1, 2]), vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(Shape::of(&[2, 1]), vec![3.0, 4.0])?;
/// assert_eq!(matmul(&a, &b)?.data(), &[11.0]);
/// # Ok::<(), stepping_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(a, b, GemmSpec::NN)
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]`.
///
/// This variant is the natural layout for `Linear` forward passes where the
/// weight matrix is stored `[out, in]`. Thin wrapper over [`gemm`] with
/// [`GemmSpec::NT`].
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(a, b, GemmSpec::NT)
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]`.
///
/// This variant computes weight gradients (`dW = xᵀ · dy`) without explicit
/// transposition. Thin wrapper over [`gemm`] with [`GemmSpec::TN`].
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    gemm(a, b, GemmSpec::TN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::microkernel::{Tier, KC, NR};

    fn seq(shape: &[usize]) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec(
            Shape::of(shape),
            (0..len).map(|i| (i as f32) * 0.5 - 3.0).collect(),
        )
        .unwrap()
    }

    const SPECS: [GemmSpec; 4] = [GemmSpec::NN, GemmSpec::NT, GemmSpec::TN, GemmSpec::TT];

    /// The oracle reads each spec's layout: `op(A) · op(B)` over stored
    /// transposes equals the plain product of the logical operands.
    #[test]
    fn reference_reads_every_layout() {
        let (a, b) = (seq(&[4, 6]), seq(&[6, 3]));
        let plain = reference_gemm(&a, &b, GemmSpec::NN).unwrap();
        let (at, bt) = (a.transpose2().unwrap(), b.transpose2().unwrap());
        for spec in SPECS {
            let lhs = if spec.trans_a { &at } else { &a };
            let rhs = if spec.trans_b { &bt } else { &b };
            assert_eq!(reference_gemm(lhs, rhs, spec).unwrap(), plain, "{spec:?}");
        }
        // row 0 of A times column 0 of B: 9 + 3.75 + 0 - 2.25 - 3 - 2.25
        assert_eq!(plain.data()[0], 5.25);
    }

    /// [`gemm`] is `to_bits()`-equal to the oracle for every spec on shapes
    /// ragged against the active tier's register tile and `NR`, deep enough
    /// to spill a partial sum across a `KC` block, and fully degenerate.
    #[test]
    fn gemm_is_bit_identical_to_the_reference() {
        let mr = Tier::active().rows();
        let shapes = [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (9, 70, 13),
            (17, 300, 33),
            (mr, KC, NR),
            (mr + 1, KC + 1, NR + 1),
            (3, 2 * KC + 17, 5),
            (0, 4, 3),
            (4, 0, 3),
            (4, 3, 0),
            (0, 0, 0),
        ];
        let mut rng = init::rng(1);
        for spec in SPECS {
            for (m, k, n) in shapes {
                let a_dims = if spec.trans_a { [k, m] } else { [m, k] };
                let b_dims = if spec.trans_b { [n, k] } else { [k, n] };
                let a = init::uniform(Shape::of(&a_dims), -1.0, 1.0, &mut rng);
                let b = init::uniform(Shape::of(&b_dims), -1.0, 1.0, &mut rng);
                let got = gemm(&a, &b, spec).unwrap();
                let want = reference_gemm(&a, &b, spec).unwrap();
                assert_eq!(got.shape(), want.shape(), "{spec:?} {m}x{k}x{n}");
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{spec:?} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn every_spec_validates_shapes() {
        let a = seq(&[2, 3]);
        let b = seq(&[4, 5]);
        let v = seq(&[3]);
        for product in [gemm, reference_gemm] {
            for spec in SPECS {
                assert!(matches!(
                    product(&a, &b, spec),
                    Err(TensorError::InnerDimMismatch { .. })
                ));
            }
            assert!(matches!(
                product(&a, &v, GemmSpec::NN),
                Err(TensorError::RankMismatch { .. })
            ));
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = seq(&[3, 3]);
        let mut eye = Tensor::zeros(Shape::of(&[3, 3]));
        for i in 0..3 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        assert_eq!(matmul(&a, &eye).unwrap(), a);
        assert_eq!(matmul(&eye, &a).unwrap(), a);
    }
}
