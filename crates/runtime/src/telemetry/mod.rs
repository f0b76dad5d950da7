//! Runtime telemetry (§4.4.2's introspection features).
//!
//! The paper makes introspection a first-class libtesla feature: a
//! pluggable event-notification framework, in-kernel aggregation via
//! DTrace, and transition-weighted automaton graphs (fig. 9) that let
//! a programmer "visually inspect the portions of the state graph
//! that are executed in practice". This module is the reproduction's
//! DTrace substitute, built so that *observing* the runtime never
//! perturbs the contention-free dispatch path it observes:
//!
//! * [`weights`] — dense per-class transition-weight tables over
//!   (DFA state, symbol) indices. One atomic add per transition on
//!   the hot path; a striped spillover map catches the rare keys that
//!   have no dense slot (unregistered classes, merged state sets).
//! * [`metrics`] — the [`MetricsRegistry`], the runtime's one
//!   lifecycle tally: per-class lifecycle counters, live-instance
//!   gauges with high-watermarks, hook-call counters and
//!   log₂-bucketed hook-latency histograms in fixed-size atomic
//!   arrays. Zero locks on the recording path of the first
//!   [`weights::MAX_DENSE_CLASSES`] classes.
//! * [`recorder`] — the [`FlightRecorder`]: a bounded, per-thread,
//!   overwrite-oldest ring buffer of lifecycle events using a seqlock
//!   protocol over plain `AtomicU64` words (no `unsafe`), snapshotted
//!   on demand.
//! * [`export`] — Prometheus text exposition, JSON snapshots, JSONL
//!   event dumps and chrome://tracing trace-event output.
//! * [`analysis`] — the layer that *consumes* all of the above
//!   online: healthy-run baselines, the TESLA-A00x anomaly scorer,
//!   and the adaptive overhead governor.

pub mod analysis;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod weights;

pub use analysis::{
    Anomaly, AnomalyCode, AnomalyReport, Baseline, ClassScore, Governor, GovernorConfig,
    GovernorDecision, Welford,
};
pub use metrics::{
    ClassMetrics, ClassSnapshot, HistogramSnapshot, HookKind, HookSnapshot, MetricsRegistry,
    MetricsSnapshot, TransitionCount,
};
pub use recorder::{FlightRecorder, RecordedEvent};
pub use weights::{ClassWeights, TransitionWeights};
