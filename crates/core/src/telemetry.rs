//! Process-wide observability hook — the event-emission side of the
//! structured observability layer.
//!
//! `stepping-core` (and `stepping-runtime`, which depends on it) emit
//! structured [`Event`]s from construction, training, and incremental
//! inference without depending on the sink crate (`stepping-obs` depends on
//! us), so — exactly like the invariant gate in [`crate::hook`] — the
//! observer is a process-wide function pointer behind a [`OnceLock`]:
//! `stepping-obs` registers itself via [`install_observer`] and fans events
//! out to its configured sinks.
//!
//! Two switches keep the disabled path free:
//!
//! * **Compile time** — without the `obs` cargo feature every emission
//!   helper compiles to an empty inline function and [`enabled`] is a
//!   constant `false`, so guarded field computation is dead-code-eliminated.
//! * **Run time** — with the feature enabled but no observer installed,
//!   [`enabled`] is a single relaxed atomic load and nothing is formatted
//!   or allocated.
//!
//! Observation is strictly read-only: installing an observer never changes
//! numerical results (asserted by the `noninterference` integration test in
//! `stepping-obs`).

use std::sync::OnceLock;
use std::time::Instant;

/// A registered pipeline phase: the first argument of every emission. Its
/// field is private to this crate, so its only values are the consts of
/// [`crate::events::phase`], and an ad-hoc phase does not compile:
///
/// ```compile_fail,E0308
/// use stepping_core::{events::event, telemetry};
/// telemetry::point("trianing", event::TRAIN_EPOCH, &[]);
/// ```
///
/// while a registered one does:
///
/// ```
/// use stepping_core::{events::{event, phase}, telemetry};
/// telemetry::point(phase::TRAINING, event::TRAIN_EPOCH, &[]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase(pub(crate) &'static str);

impl Phase {
    /// The phase as it appears in [`Event::phase`], e.g. `"training"`.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

/// A registered event name: the second argument of every emission. Its
/// field is private to this crate, so its only values are the consts of
/// [`crate::events::event`], and an ad-hoc name does not compile:
///
/// ```compile_fail,E0308
/// use stepping_core::{events::phase, telemetry};
/// telemetry::counter(phase::TRAINING, "train.batchs", 1, &[]);
/// ```
///
/// while a registered one does:
///
/// ```
/// use stepping_core::{events::{event, phase}, telemetry};
/// telemetry::counter(phase::TRAINING, event::TRAIN_BATCHES, 1, &[]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventName(pub(crate) &'static str);

impl EventName {
    /// The name as it appears in [`Event::name`], e.g. `"train.epoch"`.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

/// A single typed field value attached to an [`Event`].
///
/// Values are borrowed and `Copy`, so building a field slice on the stack
/// costs no allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// Unsigned integer (counts, MACs, indices).
    U64(u64),
    /// Signed integer (slack values that may go negative).
    I64(i64),
    /// Floating point (losses, ratios, factors).
    F64(f64),
    /// Borrowed string (labels, policies).
    Str(&'a str),
    /// Boolean flag.
    Bool(bool),
}

/// What kind of occurrence an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An instantaneous structured observation.
    Point,
    /// Completion of a timed span with its elapsed wall time.
    SpanEnd {
        /// Monotonic elapsed time of the span in nanoseconds.
        elapsed_ns: u64,
    },
    /// A monotonic counter increment.
    Counter {
        /// Amount added to the counter.
        delta: u64,
    },
}

/// A borrowed, stack-allocated telemetry event, as an observer sees it.
///
/// `phase` groups events into the instrumented layers (`"construction"`,
/// `"training"`, `"inference"`, ...) plus `"report"` for harness output;
/// `name` is a dot-separated identifier such as `construct.iteration`.
/// Emitters pass a [`Phase`] and an [`EventName`]; the observer reads their
/// strings.
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// Coarse pipeline phase this event belongs to.
    pub phase: &'a str,
    /// Dot-separated event name, e.g. `"construct.iteration"`.
    pub name: &'a str,
    /// Point, span completion, or counter increment.
    pub kind: EventKind,
    /// Typed key–value payload.
    pub fields: &'a [(&'a str, Value<'a>)],
}

/// Signature of an installable observer: receives every emitted event.
/// Must be cheap and must not re-enter the emitting code.
pub type ObserverHook = fn(&Event<'_>);

static OBSERVER: OnceLock<ObserverHook> = OnceLock::new();

/// Installs `hook` as the process-wide observer.
///
/// The first installation wins for the lifetime of the process; returns
/// `false` (and keeps the existing observer) on later calls.
pub fn install_observer(hook: ObserverHook) -> bool {
    OBSERVER.set(hook).is_ok()
}

/// Whether an observer has been installed (independent of the `obs`
/// feature — useful for harness code deciding how to route output).
pub fn observer_installed() -> bool {
    OBSERVER.get().is_some()
}

/// Whether events currently flow: the `obs` feature is compiled in *and* an
/// observer is installed. Guard any field computation that costs something
/// (formatting, extra walks) behind this.
#[cfg(feature = "obs")]
#[inline]
pub fn enabled() -> bool {
    OBSERVER.get().is_some()
}

/// Whether events currently flow — constant `false` without the `obs`
/// feature, so guarded blocks are removed at compile time.
#[cfg(not(feature = "obs"))]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// Emits an event to the installed observer. No-op when the `obs` feature
/// is off or no observer is installed.
#[inline]
pub fn emit(phase: Phase, name: EventName, kind: EventKind, fields: &[(&str, Value<'_>)]) {
    #[cfg(feature = "obs")]
    if let Some(hook) = OBSERVER.get() {
        hook(&Event {
            phase: phase.0,
            name: name.0,
            kind,
            fields,
        });
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = (phase, name, kind, fields);
    }
}

/// Emits an instantaneous [`EventKind::Point`] event.
#[inline]
pub fn point(phase: Phase, name: EventName, fields: &[(&str, Value<'_>)]) {
    emit(phase, name, EventKind::Point, fields);
}

/// Emits an [`EventKind::Counter`] increment of `delta`.
#[inline]
pub fn counter(phase: Phase, name: EventName, delta: u64, fields: &[(&str, Value<'_>)]) {
    emit(phase, name, EventKind::Counter { delta }, fields);
}

/// A guard that measures a monotonic wall-time span and emits an
/// [`EventKind::SpanEnd`] event when finished.
///
/// Created with [`span`]; finish explicitly with [`SpanGuard::end`] to
/// attach fields, or let it drop to emit with no fields. When observation
/// is disabled the guard holds no timestamp and does nothing.
#[derive(Debug)]
pub struct SpanGuard {
    phase: Phase,
    name: EventName,
    start: Option<Instant>,
}

/// Starts a timed span over `phase`/`name`. Timing uses [`Instant`], so
/// elapsed values are monotonic (never negative, nested spans never outlast
/// their parent).
#[inline]
pub fn span(phase: Phase, name: EventName) -> SpanGuard {
    SpanGuard {
        phase,
        name,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

impl SpanGuard {
    /// Nanoseconds elapsed so far; `0` when observation is disabled.
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }

    /// Whether this span is live (observation was enabled at creation).
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }

    /// Ends the span, emitting its `SpanEnd` event with `fields` attached.
    pub fn end(mut self, fields: &[(&str, Value<'_>)]) {
        self.finish(fields);
    }

    fn finish(&mut self, fields: &[(&str, Value<'_>)]) {
        if let Some(start) = self.start.take() {
            let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            emit(
                self.phase,
                self.name,
                EventKind::SpanEnd { elapsed_ns },
                fields,
            );
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish(&[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{event, phase};

    #[test]
    fn disabled_span_is_inert() {
        // No observer installed in this process (tests that install one live
        // in stepping-obs, a separate test binary).
        let s = span(phase::CONSTRUCTION, event::CONSTRUCT_RUN);
        if !enabled() {
            assert!(!s.is_active());
            assert_eq!(s.elapsed_ns(), 0);
        }
        s.end(&[("k", Value::U64(1))]);
    }

    #[test]
    fn emit_without_observer_is_a_noop() {
        point(
            phase::TRAINING,
            event::DISTILL_SUBNET,
            &[("loss", Value::F64(0.5))],
        );
        counter(phase::TRAINING, event::TRAIN_BATCHES, 3, &[]);
    }

    #[test]
    fn value_is_copy_and_comparable() {
        let v = Value::U64(7);
        let w = v;
        assert_eq!(v, w);
        assert_ne!(Value::Bool(true), Value::Bool(false));
    }
}
