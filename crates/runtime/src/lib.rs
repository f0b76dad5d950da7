//! # tesla-runtime — libtesla, the TESLA run-time support library
//!
//! "libtesla is the run-time support library for TESLA. It accepts
//! streams of events and uses them to manage automata instances."
//! (§4.4). This crate reproduces it in safe Rust:
//!
//! * [`intern`] — name interning: functions, structure fields and
//!   selectors become dense integer ids, so the hot path never
//!   compares strings (the analogue of the generated event
//!   translators binding directly to symbols).
//! * [`engine`] — the [`Tesla`] handle: automata-class registration,
//!   the instrumentation hook API (`fn_entry`, `fn_exit`,
//!   `field_store`, `msg_entry`, `msg_exit`, `assertion_site`),
//!   per-event dispatch tables, temporal-bound scope tracking with
//!   both the paper's *naive* eager-initialisation strategy and the
//!   *lazy* optimisation of §5.2.2 (fig. 13), and the per-thread
//!   shadow call stack that evaluates `incallstack` guards.
//! * [`store`] — automata instance storage (§4.4.1): per-class
//!   fixed-capacity preallocated instance tables (overflows are
//!   reported, never silently dropped), the
//!   init / clone / update / error / cleanup lifecycle, and the
//!   clone-on-specialise semantics that turn a `(∗)` instance into
//!   `(vp₁)`, `(vp₂)`, … as variable values are observed.
//! * [`handlers`] — the pluggable event-notification framework
//!   (§4.4.2): a stderr printer gated on the `TESLA_DEBUG`
//!   environment variable, an unbounded recording handler for tests
//!   and custom callbacks.
//! * [`telemetry`] — the observability layer (§4.4.2's DTrace
//!   substitute): the lock-free metrics registry, the one aggregating
//!   handler (per-class counters, hook-latency histograms, live
//!   transition weights for fig. 9 graphs), a bounded per-thread
//!   flight recorder, and Prometheus / JSON / chrome-trace exporters.
//!   Attached per engine via [`Config::telemetry`], or to any engine
//!   with [`Tesla::add_handler`].
//! * [`faults`] — seeded deterministic fault injection
//!   ([`FaultPlan`]): allocation failure, handler panics, clock skew,
//!   event drop/duplication and shard-lock poisoning, drawn at the
//!   exact sites that absorb them so the injected/absorbed ledger
//!   balances whenever the runtime degrades gracefully. The hardening
//!   it exercises — instance quotas with LRU eviction and degraded
//!   mode, panic-isolating dispatch, lock-poison recovery — is always
//!   on; the injection itself costs one branch per site when no plan
//!   is configured.
//! * [`scenario`] — the generic timeline-step vocabulary shared by
//!   the declarative scenario format (`tesla scenario`) and the
//!   simulator timeline adapters, plus the spec-runner adapter that
//!   lowers steps to [`IngressEvent`]s.
//! * [`event`] — violations and lifecycle event types. Mismatches
//!   between specification and behaviour *fail-stop* by default
//!   (hooks return `Err(Violation)`) but can be switched to
//!   log-and-continue at run time.
//!
//! ## Contexts
//!
//! Each automaton lives in the per-thread or the global context
//! (§3.2). Per-thread state needs no synchronisation; the global
//! store serialises events with a lock, which is precisely the cost
//! measured in fig. 12.
//!
//! ## Example
//!
//! ```
//! use tesla_runtime::{Tesla, Config, FailMode};
//! use tesla_spec::{call, AssertionBuilder, Value};
//!
//! let engine = Tesla::new(Config { fail_mode: FailMode::Log, ..Config::default() });
//! let assertion = AssertionBuilder::within("request")
//!     .previously(call("authorise").arg_var("user").returns(0))
//!     .build()
//!     .unwrap();
//! let class = engine.register(tesla_automata::compile(&assertion).unwrap()).unwrap();
//!
//! let request = engine.intern_fn("request");
//! let auth = engine.intern_fn("authorise");
//! engine.fn_entry(request, &[]).unwrap();              // «init»
//! engine.fn_entry(auth, &[Value(7)]).unwrap();
//! engine.fn_exit(auth, &[Value(7)], Value(0)).unwrap(); // clone (∗) → (user=7)
//! engine.assertion_site(class, &[Value(7)]).unwrap();   // update: satisfied
//! engine.assertion_site(class, &[Value(8)]).unwrap();   // error: no instance (logged)
//! engine.fn_exit(request, &[], Value(0)).unwrap();      // «cleanup»
//! assert_eq!(engine.violations().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod faults;
pub mod handlers;
pub mod ingress;
pub mod input;
pub mod intern;
mod locks;
pub mod scenario;
pub mod store;
pub mod telemetry;

pub use engine::{ClassId, Config, ConfigError, EvictionPolicy, FailMode, InitMode, Tesla};
pub use event::{LifecycleEvent, Violation, ViolationKind, ViolationRecord};
pub use faults::{FaultKind, FaultLedger, FaultPlan, FaultSpec};
pub use handlers::{Dispatch, EventHandler, RecordingHandler, StderrHandler};
#[cfg(unix)]
pub use ingress::SocketSource;
pub use ingress::{
    BatchBuf, BatchIngress, BufferedSource, DriveError, EventProducer, EventScratch, EventSource,
    IngressError, IngressEvent, IngressEventRef, IngressStats, JsonlSource, NameCache, TraceWriter,
};
pub use input::InputError;
pub use intern::{Interner, NameId};
pub use scenario::{ArgValue, Step};
pub use telemetry::{
    Anomaly, AnomalyCode, AnomalyReport, Baseline, ClassScore, FlightRecorder, Governor,
    GovernorConfig, GovernorDecision, HookKind, MetricsRegistry, MetricsSnapshot, RecordedEvent,
    Welford,
};

// The registry under the name of the aggregating handler it replaced.
// Its one user is the benchmark package's handler fan-out probe
// (`bench/src/probe.rs`), which builds outside this workspace; the
// alias goes when the benchmark joins it.
#[doc(hidden)]
pub use telemetry::MetricsRegistry as CountingHandler;

/// Maximum number of scope variables per assertion the runtime
/// supports; instances store bindings in a fixed-size array so the
/// hot path never allocates (§4.4.1's preallocation discipline).
pub const MAX_VARS: usize = 8;

/// Errors when registering an automaton class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// The assertion uses more than [`MAX_VARS`] variables.
    TooManyVariables(usize),
    /// An event pattern names more than 255 arguments, past what a
    /// translator's argument index holds.
    TooManyArguments(usize),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::TooManyVariables(n) => {
                write!(
                    f,
                    "assertion uses {n} variables; libtesla supports {MAX_VARS}"
                )
            }
            RegisterError::TooManyArguments(n) => {
                write!(f, "event pattern has {n} arguments; libtesla supports 255")
            }
        }
    }
}

impl std::error::Error for RegisterError {}
