//! The state a [`CompiledModel`] is compiled from, and the one slot that
//! remembers the last model compiled from it.
//!
//! A [`SteppingNet`](crate::SteppingNet) keeps its stages, heads and
//! feature assignment in a [`Guarded`]. Both of its fields are private to
//! this module, so the rest of the crate reaches that state only through
//! [`Guarded::read`] and [`Guarded::write`] — and `write`, the single
//! `&mut` route, empties the slot before it hands the borrow out. A
//! mutation of weights, running statistics or assignments therefore cannot
//! leave a compiled model behind: there is no code path on which it could,
//! and the compiler — not a lint over the mutators — is what says so.
//! Handing out the borrow empties conservatively: a caller that only reads
//! through it (or a masked `forward`, which writes backward caches) pays
//! one recompile at the next [`compile`](crate::SteppingNet::compile).

use std::sync::{Arc, Mutex, PoisonError};

use stepping_nn::Linear;

use crate::{plan, Assignment, CompiledModel, Stage};

/// Everything inference reads from a net that training can write.
#[derive(Debug, Clone)]
pub(crate) struct Parts {
    pub stages: Vec<Stage>,
    pub heads: Vec<Linear>,
    pub feature_assign: Assignment,
}

/// [`Parts`] plus the slot holding the model last compiled from them.
#[derive(Debug)]
pub(crate) struct Guarded {
    parts: Parts,
    /// Filled through `&self` (compiling takes the net by shared
    /// reference), hence the lock. Taken when an executor is created,
    /// never during a pass.
    compiled: Mutex<Option<Arc<CompiledModel>>>,
}

impl Guarded {
    pub fn new(parts: Parts) -> Self {
        Guarded {
            parts,
            compiled: Mutex::new(None),
        }
    }

    pub fn read(&self) -> &Parts {
        &self.parts
    }

    /// The only `&mut` route to the parts: drops the remembered model.
    pub fn write(&mut self) -> &mut Parts {
        // the slot is replaced whole, so a poisoned lock still guards a
        // valid value
        let slot = self
            .compiled
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.take().is_some() {
            plan::note_invalidate();
        }
        &mut self.parts
    }

    /// The remembered model if it was compiled at `threshold` (any model
    /// when `None`: the panels do not depend on it); otherwise `build`'s,
    /// which takes the slot. The lock is held across `build`, so callers
    /// racing on one net compile once and share the result.
    pub fn compiled(
        &self,
        threshold: Option<f32>,
        build: impl FnOnce(f32) -> CompiledModel,
    ) -> Arc<CompiledModel> {
        let mut slot = self.compiled.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(model) = slot.as_ref() {
            if threshold.is_none_or(|t| t.to_bits() == model.prune_threshold().to_bits()) {
                return Arc::clone(model);
            }
        }
        let model = Arc::new(build(threshold.unwrap_or(0.0)));
        *slot = Some(Arc::clone(&model));
        model
    }
}

impl Clone for Guarded {
    /// The clone holds equal parts, so it shares the remembered model.
    fn clone(&self) -> Self {
        let slot = self.compiled.lock().unwrap_or_else(PoisonError::into_inner);
        Guarded {
            parts: self.parts.clone(),
            compiled: Mutex::new(slot.clone()),
        }
    }
}
