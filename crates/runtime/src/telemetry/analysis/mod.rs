//! Online telemetry analysis: the layer that *consumes* the PR-3
//! collection machinery.
//!
//! Three cooperating pieces:
//!
//! * [`baseline`] — learn what "healthy" looks like: per-automaton
//!   transition-weight distributions and per-hook latency profiles,
//!   persisted to a versioned line-oriented file
//!   ([`Baseline`], `tesla baseline`);
//! * [`anomaly`] — score a live or replayed run against a baseline
//!   and raise stable-coded findings (TESLA-A001/A002/A003) with
//!   flight-recorder evidence ([`score`], `tesla observe
//!   --baseline … --anomalies`);
//! * [`governor`] — hold an instrumented-overhead SLO by adaptively
//!   shedding observation work ([`Governor`], `tesla run --govern`).

pub mod anomaly;
pub mod baseline;
pub mod governor;

pub use anomaly::{score, Anomaly, AnomalyCode, AnomalyReport, ClassScore};
pub use baseline::{
    Baseline, BaselineEdge, ClassBaseline, HookBaseline, Welford, BASELINE_HEADER, BASELINE_VERSION,
};
pub use governor::{fmt_overhead, Governor, GovernorConfig, GovernorDecision};
