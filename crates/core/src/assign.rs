//! Neuron-to-subnet assignment.
//!
//! Every neuron (fully-connected unit or convolutional filter) carries the
//! index of the *smallest* subnet containing it; subnet `k` is the set of
//! neurons with assignment `≤ k`. A neuron moved past the largest subnet
//! lands in the **unused pool** ([`Assignment::UNUSED_OFFSET`] semantics):
//! the construction flow of the paper (§III-A1) moves overflow neurons out
//! of even the largest subnet, because the width-expanded starting network
//! has far more MACs than the largest budget `P_N`.

use crate::{Result, SteppingError};

/// Subnet assignment of a group of neurons (one layer's outputs).
///
/// Values `0..subnet_count` name subnets (0 = smallest); the value
/// `subnet_count` is the unused pool.
///
/// # Example
///
/// ```
/// use stepping_core::Assignment;
///
/// let mut a = Assignment::new(4, 3); // 4 neurons, 3 subnets, all in subnet 0
/// a.move_neuron(2, 1)?;
/// assert_eq!(a.subnet_of(2), 1);
/// assert_eq!(a.members(0), vec![0, 1, 3]);
/// assert!(a.is_active(2, 1) && !a.is_active(2, 0));
/// # Ok::<(), stepping_core::SteppingError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    assign: Vec<u16>,
    subnet_count: usize,
}

impl Assignment {
    /// Creates an assignment of `neurons` neurons, all in subnet 0, with
    /// `subnet_count` subnets.
    ///
    /// # Panics
    ///
    /// Panics if `subnet_count` is zero or exceeds `u16::MAX - 1`.
    pub fn new(neurons: usize, subnet_count: usize) -> Self {
        assert!(subnet_count > 0, "at least one subnet required");
        assert!(subnet_count < u16::MAX as usize, "too many subnets");
        Assignment {
            assign: vec![0; neurons],
            subnet_count,
        }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether the layer has no neurons.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of subnets (excluding the unused pool).
    pub fn subnet_count(&self) -> usize {
        self.subnet_count
    }

    /// The assignment value denoting the unused pool.
    pub fn unused(&self) -> usize {
        self.subnet_count
    }

    /// The subnet (or unused pool) of `neuron`.
    ///
    /// # Panics
    ///
    /// Panics if `neuron` is out of range.
    pub fn subnet_of(&self, neuron: usize) -> usize {
        self.assign[neuron] as usize
    }

    /// Whether `neuron` participates in subnet `subnet`.
    pub fn is_active(&self, neuron: usize, subnet: usize) -> bool {
        (self.assign[neuron] as usize) <= subnet
    }

    /// Raw assignment values.
    pub fn values(&self) -> &[u16] {
        &self.assign
    }

    /// Moves `neuron` to `target` (a subnet index or the unused pool).
    ///
    /// # Errors
    ///
    /// Returns [`SteppingError::SubnetOutOfRange`] when `target` exceeds the
    /// unused pool, or [`SteppingError::InvalidStructure`] when `neuron` is
    /// out of range.
    pub fn move_neuron(&mut self, neuron: usize, target: usize) -> Result<()> {
        if target > self.unused() {
            return Err(SteppingError::SubnetOutOfRange {
                subnet: target,
                count: self.subnet_count,
            });
        }
        if neuron >= self.assign.len() {
            return Err(SteppingError::InvalidStructure(format!(
                "neuron {neuron} out of range for layer of {}",
                self.assign.len()
            )));
        }
        self.assign[neuron] = target as u16;
        Ok(())
    }

    /// Neurons whose smallest containing subnet is exactly `subnet`.
    pub fn members(&self, subnet: usize) -> Vec<usize> {
        self.assign
            .iter()
            .enumerate()
            .filter(|(_, &a)| a as usize == subnet)
            .map(|(i, _)| i)
            .collect()
    }

    /// Count of neurons active in `subnet`.
    pub fn active_count(&self, subnet: usize) -> usize {
        self.assign
            .iter()
            .filter(|&&a| (a as usize) <= subnet)
            .count()
    }

    /// Whether the neurons are stored level-major: index order equals
    /// `(level, index)` order, so subnet `s`'s neurons are the prefix
    /// `0..active_count(s)` and each level is a contiguous range.
    pub fn is_level_major(&self) -> bool {
        self.assign.is_sorted()
    }

    /// The stable sort of the neurons by level — entry `j` is the index of
    /// the neuron that moves to index `j` — or `None` when they are already
    /// level-major.
    pub fn level_order(&self) -> Option<Vec<usize>> {
        if self.is_level_major() {
            return None;
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| self.assign[i]);
        Some(order)
    }

    /// Reorders the neurons: neuron `j` takes the level of neuron `perm[j]`.
    pub(crate) fn permute(&mut self, perm: &[usize]) {
        stepping_nn::permute_axis(&mut self.assign, perm, 1);
    }

    /// Expands each value `factor` times (channel assignment → flattened
    /// feature assignment across `factor = h·w` spatial positions).
    pub fn repeat_each(&self, factor: usize) -> Assignment {
        let mut assign = Vec::with_capacity(self.assign.len() * factor);
        for &a in &self.assign {
            assign.extend(std::iter::repeat_n(a, factor));
        }
        Assignment {
            assign,
            subnet_count: self.subnet_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_assignment_is_all_subnet_zero() {
        let a = Assignment::new(5, 3);
        assert_eq!(a.len(), 5);
        assert_eq!(a.active_count(0), 5);
        assert_eq!(a.members(1), Vec::<usize>::new());
        assert_eq!(a.unused(), 3);
    }

    #[test]
    fn move_and_membership() {
        let mut a = Assignment::new(4, 2);
        a.move_neuron(1, 1).unwrap();
        a.move_neuron(3, 2).unwrap(); // unused pool
        assert_eq!(a.members(0), vec![0, 2]);
        assert_eq!(a.members(1), vec![1]);
        assert_eq!(a.members(2), vec![3]);
        assert_eq!(a.active_count(0), 2);
        assert!(!a.is_active(3, 1));
    }

    #[test]
    fn move_validates_bounds() {
        let mut a = Assignment::new(2, 2);
        assert!(a.move_neuron(0, 3).is_err());
        assert!(a.move_neuron(5, 1).is_err());
    }

    #[test]
    fn repeat_each_expands_for_flatten() {
        let mut a = Assignment::new(2, 2);
        a.move_neuron(1, 1).unwrap();
        let f = a.repeat_each(3);
        assert_eq!(f.values(), &[0, 0, 0, 1, 1, 1]);
        assert_eq!(f.subnet_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one subnet")]
    fn zero_subnets_panics() {
        let _ = Assignment::new(1, 0);
    }
}
