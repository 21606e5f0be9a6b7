//! Fixed-order pairwise tree reduction.
//!
//! Floating-point addition is not associative, so *how* per-shard partial
//! results are merged is part of the numerical contract. [`tree_reduce`]
//! merges neighbours `(0,1) (2,3) …` level by level; an odd tail element
//! passes through unchanged. The association is therefore a pure function of
//! the item count — with shard results always presented in shard-index
//! order, the merged value is bit-identical no matter how many threads
//! produced the shards or in what order they finished.
//!
//! The whole module is a determinism zone: the bans of the root
//! `clippy.toml` (unordered containers, wall clocks, the machine's thread
//! count) are errors here.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use stepping_tensor::{GradStore, TensorError};

/// Reduces `items` with a fixed-order pairwise tree; `combine(a, b)` folds
/// the higher-index element `b` into the lower-index accumulator `a`.
/// Returns `None` for an empty input.
pub fn tree_reduce<T>(items: Vec<T>, mut combine: impl FnMut(&mut T, T)) -> Option<T> {
    let mut level = items;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                combine(&mut a, b);
            }
            next.push(a);
        }
        level = next;
    }
    level.into_iter().next()
}

/// Number of pairwise combines [`tree_reduce`] performs for `n` items
/// (`n - 1` for nonempty inputs) — exposed for telemetry counters.
pub fn tree_reduce_ops(n: usize) -> u64 {
    n.saturating_sub(1) as u64
}

/// Tree-reduces gradient stores with elementwise addition — the merge used
/// for per-shard gradients.
///
/// # Errors
///
/// Propagates shape/slot-count mismatches between shard stores.
pub fn tree_reduce_grads(stores: Vec<GradStore>) -> Result<Option<GradStore>, TensorError> {
    let mut err = None;
    let merged = tree_reduce(stores, |a, b| {
        if err.is_none() {
            if let Err(e) = a.add_assign(&b) {
                err = Some(e);
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(merged),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_tensor::{Shape, Tensor};

    #[test]
    fn tree_order_is_fixed_pairwise() {
        // Track the association symbolically.
        let items: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let merged = tree_reduce(items, |a, b| *a = format!("({a}+{b})")).unwrap();
        assert_eq!(merged, "(((0+1)+(2+3))+4)");
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(tree_reduce(Vec::<u32>::new(), |a, b| *a += b), None);
        assert_eq!(tree_reduce(vec![7u32], |a, b| *a += b), Some(7));
        assert_eq!(tree_reduce_ops(0), 0);
        assert_eq!(tree_reduce_ops(1), 0);
        assert_eq!(tree_reduce_ops(5), 4);
    }

    #[test]
    fn reduction_is_deterministic_for_floats() {
        let vals = [0.1f32, 0.7, 1e-8, 3.3, -2.2, 0.5, 9.9];
        let a = tree_reduce(vals.to_vec(), |x, y| *x += y).unwrap();
        let b = tree_reduce(vals.to_vec(), |x, y| *x += y).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn grad_stores_merge_elementwise() {
        let mk = |v: f32| GradStore::new(vec![Tensor::full(Shape::of(&[2, 2]), v)]);
        let merged = tree_reduce_grads(vec![mk(1.0), mk(2.0), mk(3.0)])
            .unwrap()
            .unwrap();
        assert_eq!(merged.get(0).unwrap().data(), &[6.0; 4]);
    }

    #[test]
    fn grad_store_shape_mismatch_is_error() {
        let a = GradStore::new(vec![Tensor::zeros(Shape::of(&[2]))]);
        let b = GradStore::new(vec![Tensor::zeros(Shape::of(&[3]))]);
        assert!(tree_reduce_grads(vec![a, b]).is_err());
    }
}
